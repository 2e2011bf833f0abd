// Declared pass rules for the BENCH_*.json reports.
//
// Every report carries its own gates, `gates: [{name, value, op, bound,
// ok}]`. The code that builds a report declares them with AddGate; the
// report binary ends with WriteReport, whose return value is its exit code;
// tools/check_bench re-evaluates them from the written file (CheckReport);
// tools/render_results renders them. A gate passes when `value op bound`
// holds, where op is one of == != < <= > >= and a bool counts as 0 or 1.
#ifndef SRC_METRICS_GATES_H_
#define SRC_METRICS_GATES_H_

#include <optional>
#include <string>
#include <vector>

#include "src/base/json.h"

namespace accent {

// Appends {name, value, op, bound, ok} to (*report)["gates"], with ok
// evaluated here. An op EvalGate cannot evaluate is a caller bug (CHECK).
void AddGate(Json* report, const std::string& name, Json value, const std::string& op,
             Json bound);

// `value op bound`; nullopt for an unknown op or a side that is neither a
// number nor a bool.
std::optional<bool> EvalGate(const Json& value, const std::string& op, const Json& bound);

// Writes `report` to `path`, prints one line per gate, and returns 0 only
// if the file was written and every gate passes (1 otherwise).
int WriteReport(const Json& report, const std::string& path);

// The whole check of one report file's text, one line per problem; empty
// means the report is ok. The text must parse (a non-finite double dumps
// as nan/inf, which never parses), `bench` must equal `bench`,
// `schema_version` must be present, `gates` must be a non-empty array of
// well-formed gates that each pass with a stored ok equal to the
// recomputed `value op bound`, and every path must resolve from the root.
// A path's steps are object keys separated by '/' (registry names contain
// dots); a step into an array checks every element, and an empty array
// resolves nothing.
std::vector<std::string> CheckReport(const std::string& text, const std::string& bench,
                                     const std::vector<std::string>& paths);

}  // namespace accent

#endif  // SRC_METRICS_GATES_H_
