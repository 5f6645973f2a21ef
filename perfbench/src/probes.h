// perfbench — layer probes of the traced run.
//
// Each probe times one public function of one src/ module on the
// workload's own inputs (its mesh, its pinned pressure operator, its
// machine and strip), several times, each call in its own span; the
// per-layer metric is the median span.  Unless a probe says otherwise it
// runs one untimed call first, so lazy set-up (first-touch line
// canonicalization, scratch growth) is finished before timing starts.
#pragma once

#include <string>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Run every layer probe under the currently open span and add the
/// per-layer metrics they measure to @p report.  @p scratch is a writable
/// directory (checkpoint copies).
void run_probes(const ProbeInputs& in, const std::string& scratch,
                Tracer& tracer, Report& report, Checks& checks);

}  // namespace perfbench
