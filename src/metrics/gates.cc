#include "src/metrics/gates.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>

#include "src/base/check.h"

namespace accent {
namespace {

struct GateOp {
  const char* op;
  bool (*holds)(double, double);
};

constexpr GateOp kGateOps[] = {
    {"==", [](double a, double b) { return a == b; }},
    {"!=", [](double a, double b) { return a != b; }},
    {"<", [](double a, double b) { return a < b; }},
    {"<=", [](double a, double b) { return a <= b; }},
    {">", [](double a, double b) { return a > b; }},
    {">=", [](double a, double b) { return a >= b; }},
};

// Gate values are report counts and ratios, far below 2^53, so the double
// is exact for every integer a report carries.
std::optional<double> GateNumber(const Json& v) {
  if (v.is_bool()) {
    return v.AsBool() ? 1.0 : 0.0;
  }
  if (v.is_number()) {
    return v.AsDouble();
  }
  return std::nullopt;
}

std::string Describe(const Json& gate) {
  return gate.Get("name").AsString() + ": " + gate.Get("value").Dump() + " " +
         gate.Get("op").AsString() + " " + gate.Get("bound").Dump();
}

bool WellFormed(const Json& gate) {
  const Json* name = gate.Find("name");
  const Json* op = gate.Find("op");
  const Json* ok = gate.Find("ok");
  return name != nullptr && name->is_string() && op != nullptr && op->is_string() &&
         ok != nullptr && ok->is_bool() && gate.Find("value") != nullptr &&
         gate.Find("bound") != nullptr;
}

bool PathResolves(const Json& node, std::string_view path) {
  if (node.is_array()) {
    const Json::Array& items = node.AsArray();
    return !items.empty() && std::all_of(items.begin(), items.end(), [&](const Json& item) {
      return PathResolves(item, path);
    });
  }
  const std::size_t slash = path.find('/');
  const Json* child = node.Find(std::string(path.substr(0, slash)));
  if (child == nullptr) {
    return false;
  }
  return slash == std::string_view::npos || PathResolves(*child, path.substr(slash + 1));
}

// One line per problem with report["gates"]; empty means every gate passes.
std::vector<std::string> GateProblems(const Json& report) {
  const Json* gates = report.Find("gates");
  if (gates == nullptr || !gates->is_array() || gates->AsArray().empty()) {
    return {"gates missing or empty"};
  }
  std::vector<std::string> problems;
  for (const Json& gate : gates->AsArray()) {
    if (!WellFormed(gate)) {
      problems.push_back("malformed gate " + gate.Dump());
      continue;
    }
    const std::optional<bool> ok =
        EvalGate(gate.Get("value"), gate.Get("op").AsString(), gate.Get("bound"));
    if (!ok.has_value()) {
      problems.push_back("gate cannot be evaluated: " + Describe(gate));
    } else if (*ok != gate.Get("ok").AsBool()) {
      problems.push_back("gate stores ok=" + gate.Get("ok").Dump() + " but recomputes " +
                         (*ok ? "true" : "false") + ": " + Describe(gate));
    } else if (!*ok) {
      problems.push_back("gate failed: " + Describe(gate));
    }
  }
  return problems;
}

}  // namespace

void AddGate(Json* report, const std::string& name, Json value, const std::string& op,
             Json bound) {
  const std::optional<bool> ok = EvalGate(value, op, bound);
  ACCENT_CHECK(ok.has_value()) << " gate " << name << " cannot evaluate " << value.Dump() << ' '
                               << op << ' ' << bound.Dump();
  Json gate;
  gate["name"] = Json(name);
  gate["value"] = std::move(value);
  gate["op"] = Json(op);
  gate["bound"] = std::move(bound);
  gate["ok"] = Json(*ok);
  (*report)["gates"].Append(std::move(gate));
}

std::optional<bool> EvalGate(const Json& value, const std::string& op, const Json& bound) {
  const std::optional<double> a = GateNumber(value);
  const std::optional<double> b = GateNumber(bound);
  if (!a.has_value() || !b.has_value()) {
    return std::nullopt;
  }
  for (const GateOp& known : kGateOps) {
    if (op == known.op) {
      return known.holds(*a, *b);
    }
  }
  return std::nullopt;
}

int WriteReport(const Json& report, const std::string& path) {
  std::ofstream file(path, std::ios::trunc);
  file << report.Dump(2) << '\n';
  file.close();
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  if (const Json* gates = report.Find("gates"); gates != nullptr && gates->is_array()) {
    for (const Json& gate : gates->AsArray()) {
      if (WellFormed(gate)) {
        std::printf("gate %-4s %s\n", gate.Get("ok").AsBool() ? "ok" : "FAIL",
                    Describe(gate).c_str());
      }
    }
  }
  const std::vector<std::string> problems = GateProblems(report);
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), problem.c_str());
  }
  std::printf("-> %s\n", path.c_str());
  return problems.empty() ? 0 : 1;
}

std::vector<std::string> CheckReport(const std::string& text, const std::string& bench,
                                     const std::vector<std::string>& paths) {
  Json report;
  if (!Json::TryParse(text, &report) || !report.is_object()) {
    return {"not a JSON object (or holds a non-finite number)"};
  }
  std::vector<std::string> problems;
  const Json* kind = report.Find("bench");
  if (kind == nullptr || !kind->is_string() || kind->AsString() != bench) {
    problems.push_back("bench is not \"" + bench + "\"");
  }
  if (report.Find("schema_version") == nullptr) {
    problems.push_back("missing schema_version");
  }
  for (std::string& problem : GateProblems(report)) {
    problems.push_back(std::move(problem));
  }
  for (const std::string& path : paths) {
    if (!PathResolves(report, path)) {
      problems.push_back("missing " + path);
    }
  }
  return problems;
}

}  // namespace accent
