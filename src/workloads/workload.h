// The seven representative processes of section 4.1.
//
// Each spec reproduces its program's published address-space composition
// (Table 4-1), resident set (Table 4-2) and remote access behaviour
// (Table 4-3 and the access-pattern prose):
//   Minprog  — "null trap": prints, waits, exits; touches almost nothing.
//   Lisp-T   — SPICE Lisp evaluating T: 4 GB validated at birth, 99.9%
//              RealZeroMem, tiny touched set, no locality.
//   Lisp-Del — Lisp running Dwyer's Delaunay triangulation: real compute and
//              I/O, still touches only 16.5% of RealMem, low locality.
//   PM-Start/Mid/End — the Pasmac macro processor migrated early / after
//              reading its definition files / near completion: sequential
//              scans over mapped files; the resident set is polluted by
//              already-processed file pages (physical memory as disk cache).
//   Chess    — compute-bound; long-lived; modest memory.
//
// A spec is *built* into a suspended-at-migration-point process: layout and
// resident set are constructed directly (the paper measures from the
// migration request onward), and the post-migration reference trace is
// synthesised by the pattern generators in trace_gen.h.
#ifndef SRC_WORKLOADS_WORKLOAD_H_
#define SRC_WORKLOADS_WORKLOAD_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/page_ref.h"
#include "src/base/types.h"
#include "src/proc/host_env.h"
#include "src/proc/process.h"
#include "src/proc/trace.h"

namespace accent {

enum class AccessPattern {
  kMinimal,          // touch the working set quickly, terminate
  kRandomClustered,  // Lisp: scattered 1-3 page clusters, no time locality
  kSequentialScan,   // Pasmac: ascending scan, ~80% density within the range
  kComputeBound,     // Chess: touches early, long compute tail
};

struct WorkloadSpec {
  std::string name;

  // Table 4-1 (bytes; all page multiples).
  ByteCount real_bytes = 0;
  ByteCount zero_bytes = 0;

  // Table 4-2 (bytes).
  ByteCount resident_bytes = 0;

  // Process-map complexity: the number of Real / RealZero intervals the
  // layout alternates between (drives AMap construction cost, Table 4-4).
  std::uint32_t real_regions = 1;
  std::uint32_t zero_regions = 1;

  // Remote-execution behaviour.
  AccessPattern pattern = AccessPattern::kMinimal;
  std::uint64_t touched_real_pages = 0;  // Table 4-3 (pure-IOU column)
  std::uint64_t resident_touched_overlap = 0;  // |touched ∩ resident|
  std::uint64_t zero_touches = 0;        // RealZeroMem pages touched remotely
  SimDuration compute{0};                // total post-migration compute
  double scan_density = 0.8;             // kSequentialScan: fraction touched
                                         // within the active range

  // --- derived -----------------------------------------------------------
  ByteCount total_bytes() const { return real_bytes + zero_bytes; }
  PageIndex real_pages() const { return real_bytes / kPageSize; }
  PageIndex zero_pages() const { return zero_bytes / kPageSize; }
  PageIndex resident_pages() const { return resident_bytes / kPageSize; }
};

// The paper's seven representatives, calibrated to Tables 4-1/4-2/4-3.
const std::vector<WorkloadSpec>& RepresentativeWorkloads();
const WorkloadSpec& WorkloadByName(const std::string& name);

// A spec materialised on a host: a quiescent process at its migration
// point, with the resident set staged in physical memory.
struct WorkloadInstance {
  WorkloadSpec spec;
  std::unique_ptr<Process> process;
  std::vector<PageIndex> real_page_list;   // ascending VA pages of RealMem
  std::vector<PageIndex> resident_pages;   // staged resident set
  std::set<PageIndex> planned_touches;     // real pages the trace will touch
};

// `pages` pages from VA page `first`, mapped to the program image (real)
// or validated as zero-fill (RealZeroMem).
struct WorkloadRegion {
  PageIndex first = 0;
  PageIndex pages = 0;
  bool real = false;
};

// Everything a (workload, seed) is staged with, planned once: the layout,
// the RealMem contents, the trace and the resident set depend on nothing
// else, so every staging of it installs the same plan.
//
// The RealMem contents are one pattern page per RealMem page, in image
// order (page i of the program image segment is the i-th page of
// real_page_list). Each page is a PageRef::Pattern that generates its bytes
// on its first read, so planning and staging generate none, and a run
// generates only the pages it reads: the planned touches a process writes
// or ObservableChecksum folds. The integrity reference reads them too: it
// folds the planned touches with the trace's writes without staging the
// image (ReferenceChecksum, src/experiments/scenario.h). Every staging and
// that fold share these same payloads, so a page one reader materialised
// stays materialised for the next. The image holds its own reference to
// every payload, so a run or the fold that writes a page clones it first
// (copy-on-write) and the image stays as planned; every staging's process
// runs the one shared trace. An image stays on the thread that built it:
// payloads are shared across the runs of one thread, never across threads.
struct WorkloadImage {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<PageRef> pages;             // RealMem contents, image order
  std::vector<WorkloadRegion> regions;    // Real and RealZero, address order
  std::vector<PageIndex> real_page_list;  // ascending VA pages of RealMem
  TracePtr trace;                         // the post-migration trace
  std::set<PageIndex> planned_touches;    // real pages the trace touches
  std::vector<PageIndex> resident_pages;  // the resident set, ascending
};

// Plans `spec` under `seed`.
WorkloadImage BuildWorkloadImage(const WorkloadSpec& spec, std::uint64_t seed);

// Stages `spec` on `env` from `image`, which must have been planned for
// (spec, seed): the image segment and its pages, the mappings in address
// order, the resident frames, and the process on the image's trace. The
// same (spec, seed) yields a bit-identical instance, with its ids allocated
// in the same order (space, segment, process). Without an image,
// BuildWorkload plans its own.
WorkloadInstance BuildWorkload(const WorkloadSpec& spec, HostEnv* env, std::uint64_t seed,
                               const WorkloadImage* image = nullptr);

// Deterministic content seed for a workload's real page (integrity checks).
std::uint64_t WorkloadPageSeed(std::uint64_t pattern_seed, PageIndex page);

}  // namespace accent

#endif  // SRC_WORKLOADS_WORKLOAD_H_
