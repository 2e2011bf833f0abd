// Canonical JSON serialisation of one trial result.
//
// TrialResultToJson(r).Dump() is the exact per-trial row the golden sweep
// digest (tests/golden_sweep_test.cc) hashes, so every field it emits — and
// every field it deliberately omits — is part of the results contract: a
// serialisation change moves the digest just as a simulation change does.
// Fields added after the seed (pre-copy knobs, the content cache, the
// checkpoint store) are emitted only when enabled, so the paper grid's rows
// stay byte-identical.
#ifndef SRC_EXPERIMENTS_SWEEP_CACHE_H_
#define SRC_EXPERIMENTS_SWEEP_CACHE_H_

#include "src/base/json.h"
#include "src/experiments/trial.h"

namespace accent {

Json TrialResultToJson(const TrialResult& result);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_SWEEP_CACHE_H_
