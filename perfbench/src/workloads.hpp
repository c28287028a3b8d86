// The three workloads. Each fills `report` with every end-to-end metric
// (untraced run) or every per-layer metric it measures (traced run).
#pragma once

#include "common.hpp"

namespace perfbench {

void run_paper(const Args& args, Report& report);
void run_service_mixed(const Args& args, Report& report);
void run_edge_cached(const Args& args, Report& report);

/// The paper workload's 3-thread and 1-thread arms, shortened to
/// kCalibrationSeconds. The service and edge workloads run them before
/// their own traffic, so every workload reports the paper figure from the
/// same host in the same run.
Arms calibration_arms(std::uint64_t seed, Report& report);
inline constexpr double kCalibrationSeconds = 8.0;

}  // namespace perfbench
