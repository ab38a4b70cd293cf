#include "src/coordinator/configuration.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace gemini {

std::string_view FragmentModeName(FragmentMode mode) {
  switch (mode) {
    case FragmentMode::kNormal:
      return "normal";
    case FragmentMode::kTransient:
      return "transient";
    case FragmentMode::kRecovery:
      return "recovery";
  }
  return "?";
}

std::string Configuration::Serialize() const {
  // Line 0: "v2 <id> <num_fragments>"; then one line per fragment:
  // "<primary> <secondary> <config_id> <mode> <epoch>".
  std::string out;
  out.reserve(16 + fragments_.size() * 28);
  char buf[112];
  std::snprintf(buf, sizeof(buf), "v2 %llu %zu\n",
                static_cast<unsigned long long>(id_), fragments_.size());
  out += buf;
  for (const auto& f : fragments_) {
    std::snprintf(buf, sizeof(buf), "%u %u %llu %u %u\n", f.primary,
                  f.secondary, static_cast<unsigned long long>(f.config_id),
                  static_cast<unsigned>(f.mode), f.epoch);
    out += buf;
  }
  return out;
}

namespace {

bool NextToken(std::string_view& in, uint64_t& out) {
  while (!in.empty() && (in.front() == ' ' || in.front() == '\n')) {
    in.remove_prefix(1);
  }
  const char* begin = in.data();
  const char* end = in.data() + in.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc()) return false;
  in.remove_prefix(static_cast<size_t>(ptr - begin));
  return true;
}

}  // namespace

std::optional<Configuration> Configuration::Deserialize(std::string_view data) {
  if (data.substr(0, 3) != "v2 ") return std::nullopt;
  data.remove_prefix(3);
  uint64_t id = 0, count = 0;
  if (!NextToken(data, id) || !NextToken(data, count)) return std::nullopt;
  if (count > (1ULL << 31)) return std::nullopt;
  std::vector<FragmentAssignment> fragments;
  // A fragment is at least 10 bytes of text (five separator + digit pairs):
  // never reserve for more fragments than the rest of the text can hold.
  fragments.reserve(std::min<uint64_t>(count, data.size() / 10));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t primary = 0, secondary = 0, cfg = 0, mode = 0, epoch = 0;
    if (!NextToken(data, primary) || !NextToken(data, secondary) ||
        !NextToken(data, cfg) || !NextToken(data, mode) ||
        !NextToken(data, epoch)) {
      return std::nullopt;
    }
    if (mode > static_cast<uint64_t>(FragmentMode::kRecovery)) {
      return std::nullopt;
    }
    FragmentAssignment f;
    f.primary = static_cast<InstanceId>(primary);
    f.secondary = static_cast<InstanceId>(secondary);
    f.config_id = cfg;
    f.mode = static_cast<FragmentMode>(mode);
    f.epoch = static_cast<uint32_t>(epoch);
    fragments.push_back(f);
  }
  return Configuration(id, std::move(fragments));
}

}  // namespace gemini
