// Flag values for the command-line tools. A value a tool cannot parse exits
// it with status 2 and a message naming the tool, the flag and the value:
// atoi's silent 0 turned "--port 8O80" into an ephemeral port, exactly the
// kind of operator surprise a server binary must not have.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

namespace gemini::flags {

[[noreturn]] inline void Invalid(std::string_view tool,
                                 std::string_view flag,
                                 std::string_view value,
                                 std::string_view expected) {
  std::cerr << tool << ": invalid value '" << value << "' for " << flag
            << " (expected " << expected << ")\n";
  std::exit(2);
}

/// A non-negative integer in [0, max].
inline uint64_t ParseUint(std::string_view tool, std::string_view flag,
                          const char* value, uint64_t max) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed > max ||
      value[0] == '-') {
    Invalid(tool, flag, value,
            "an integer in [0, " + std::to_string(max) + "]");
  }
  return static_cast<uint64_t>(parsed);
}

struct HostPort {
  std::string host;
  uint16_t port = 0;
};

/// "HOST:PORT[,HOST:PORT...]", each item as an Endpoint{host, port}. The
/// last ':' of an item splits it, so bare IPv4 addresses and hostnames
/// only.
template <typename Endpoint = HostPort>
std::vector<Endpoint> ParseHostPorts(std::string_view tool,
                                     std::string_view flag,
                                     std::string_view value) {
  std::vector<Endpoint> out;
  size_t begin = 0;
  while (begin <= value.size()) {
    size_t end = value.find(',', begin);
    if (end == std::string_view::npos) end = value.size();
    const std::string item(value.substr(begin, end - begin));
    const size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == item.size()) {
      Invalid(tool, flag, item, "HOST:PORT");
    }
    out.push_back(Endpoint{item.substr(0, colon),
                           static_cast<uint16_t>(ParseUint(
                               tool, flag, item.c_str() + colon + 1, 65535))});
    begin = end + 1;
  }
  return out;
}

/// One "HOST:PORT".
inline HostPort ParseHostPort(std::string_view tool, std::string_view flag,
                              std::string_view value) {
  std::vector<HostPort> one = ParseHostPorts(tool, flag, value);
  if (one.size() != 1) Invalid(tool, flag, value, "HOST:PORT");
  return one.front();
}

}  // namespace gemini::flags
