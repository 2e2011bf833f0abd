// Forwards to TrialResultToJson's home, src/experiments/scenario.h, for the
// code that still includes this header by name.
#ifndef SRC_EXPERIMENTS_SWEEP_CACHE_H_
#define SRC_EXPERIMENTS_SWEEP_CACHE_H_

#include "src/experiments/scenario.h"
#include "src/experiments/trial.h"

#endif  // SRC_EXPERIMENTS_SWEEP_CACHE_H_
