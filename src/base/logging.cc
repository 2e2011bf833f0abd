#include "src/base/logging.h"

#include <cstdio>

namespace accent {

Logger& Logger::Get() {
  static Logger logger;
  return logger;
}

void Logger::Write(LogLevel level, const std::string& msg) {
  const char* tag = "?";
  switch (level) {
    case LogLevel::kError: tag = "E"; break;
    case LogLevel::kInfo: tag = "I"; break;
    case LogLevel::kDebug: tag = "D"; break;
    case LogLevel::kTrace: tag = "T"; break;
    case LogLevel::kNone: return;
  }
  std::fprintf(stderr, "[%s] %s\n", tag, msg.c_str());
}

}  // namespace accent
