// check_bench: runs one report binary and checks the BENCH_*.json it writes.
//
//   check_bench <bench-binary> <out.json> <bench-name> <path>...
//
// Runs `<bench-binary> --out <out.json>` and fails if it exits non-zero.
// Then fails unless the file parses, its `bench` is <bench-name>, it has
// `schema_version`, every gate it declares passes when recomputed, and
// every <path> resolves (CheckReport in src/metrics/gates.h has the path
// syntax). Each bench_*_check ctest is one call; bench/CMakeLists.txt holds
// the path lists.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/metrics/gates.h"

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: check_bench <bench-binary> <out.json> <bench-name> <path>...\n");
    return 2;
  }
  const char* binary = argv[1];
  const char* out = argv[2];

  const pid_t pid = fork();
  if (pid == 0) {
    execl(binary, binary, "--out", out, static_cast<char*>(nullptr));
    std::perror(binary);
    _exit(127);
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "check_bench: %s --out %s failed\n", binary, out);
    return 1;
  }

  std::ifstream file(out, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  const std::vector<std::string> problems =
      accent::CheckReport(text.str(), argv[3], std::vector<std::string>(argv + 4, argv + argc));
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "check_bench: %s: %s\n", out, problem.c_str());
  }
  if (problems.empty()) {
    std::printf("check_bench: %s ok (%d paths)\n", out, argc - 4);
  }
  return problems.empty() ? 0 : 1;
}
