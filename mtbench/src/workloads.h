// The benchmark's three workloads. Each fills `report` with either the
// end-to-end metrics (timed run) or the per-layer metrics (traced run,
// Args::trace) and returns a non-OK status only when the workload could not
// be set up at all.
#ifndef MTBENCH_WORKLOADS_H_
#define MTBENCH_WORKLOADS_H_

#include "common.h"
#include "common/status.h"

namespace mtbench {

/// mth-all (`all_tenants`: C = 1, SCOPE "IN ()", unpartitioned, parallel,
/// gold = TPC-H baseline) and mth-own (default scope, 10 hash partitions,
/// serial, gold = canonical level).
mtbase::Status RunMth(const Args& args, bool all_tenants, Report* report);

/// The many-tenant serving mix.
mtbase::Status RunServing(const Args& args, Report* report);

}  // namespace mtbench

#endif  // MTBENCH_WORKLOADS_H_
