// Layer labs: small, fixed inputs driven through one layer's public
// functions, timed on the host clock. Each lab sets its per-layer metrics
// and records one span per timed call.
#ifndef PERFBENCH_LABS_H_
#define PERFBENCH_LABS_H_

#include <vector>

#include "perfbench/report.h"
#include "src/experiments/scenario_fuzz.h"

namespace perfbench {

// sim.dispatch_ns: Simulator::ScheduleAt/Run storm with a 40-byte capture.
void DispatchLab(MetricSet& metrics, SpanRecorder& spans);

// netmsg.fragment_ns: one 64 KB out-of-line message across a two-host
// testbed, host time divided by NetMsgFragmentCount.
void FragmentLab(MetricSet& metrics, SpanRecorder& spans);

// pager.fault_ns.{fillzero,disk,imaginary}: Pager::Access + Run per tier.
void FaultLab(MetricSet& metrics, SpanRecorder& spans);

// pager.fault_ns.{cache_confirm,holder_pull}: a content-cache round whose
// faults are served by that tier; host time per page the tier served.
void CacheTierLab(MetricSet& metrics, SpanRecorder& spans);

// proc.{excise,insert}_ns_per_page: ExciseProcess / InsertProcess on a
// staged PM-Mid process.
void ExciseInsertLab(MetricSet& metrics, SpanRecorder& spans);

// base.page_hash_ns.{cold,memo} and base.page_store_lookup_ns.
void BaseLab(MetricSet& metrics, SpanRecorder& spans);

// base.json_row_us: TrialResultToJson + Dump of one PM-Mid trial row.
void JsonRowLab(MetricSet& metrics, SpanRecorder& spans);

// netmsg.retransmits / netmsg.acks: the faulty wire plans of `scenarios`
// (drop/duplicate/delay/reorder only) applied to one 64 KB transfer each on
// a two-host testbed, counted from the netmsg lane of a verbose Tracer.
void LossyTransferLab(const std::vector<accent::FuzzScenario>& scenarios, MetricSet& metrics,
                      SpanRecorder& spans);

// Runs every workload-independent lab above.
void RunLayerLabs(MetricSet& metrics, SpanRecorder& spans, bool with_json_row_lab);

}  // namespace perfbench

#endif  // PERFBENCH_LABS_H_
