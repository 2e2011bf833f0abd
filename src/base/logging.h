// Minimal leveled logging for the simulator.
//
// Logging is off by default (benchmarks must stay quiet); tests and examples
// can raise the level. Messages go to stderr prefixed with their level.
#ifndef SRC_BASE_LOGGING_H_
#define SRC_BASE_LOGGING_H_

#include <sstream>
#include <string>

namespace accent {

enum class LogLevel : int {
  kNone = 0,
  kError = 1,
  kInfo = 2,
  kDebug = 3,
  kTrace = 4,
};

class Logger {
 public:
  static Logger& Get();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }

  bool Enabled(LogLevel level) const { return level <= level_; }
  void Write(LogLevel level, const std::string& msg);

 private:
  LogLevel level_ = LogLevel::kNone;
};

namespace log_internal {

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::Get().Write(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace log_internal
}  // namespace accent

#define ACCENT_LOG(level)                                  \
  if (!::accent::Logger::Get().Enabled(::accent::LogLevel::level)) { \
  } else                                                   \
    ::accent::log_internal::LogLine(::accent::LogLevel::level)

#endif  // SRC_BASE_LOGGING_H_
