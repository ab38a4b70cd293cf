#include "src/persist/fault_file.h"

#include <fcntl.h>
#include <unistd.h>

#include "src/common/file_util.h"
#include "src/common/hash.h"
#include "src/common/rng.h"

namespace gemini {

FaultPlan FaultFile::PlanFor(uint64_t seed, uint32_t index,
                             FaultPlan::Kind kind, uint64_t file_size,
                             const std::vector<uint64_t>& record_ends) {
  // One independent stream per (seed, index, kind): the same mixing idiom as
  // FaultProxy::PlanFor, so a CI seed pins the whole matrix.
  Rng rng(Mix64(seed ^ Mix64(index) ^
                Mix64(static_cast<uint64_t>(kind) + 0x517CC1B727220A95ULL)));
  FaultPlan plan;
  plan.kind = kind;
  switch (kind) {
    case FaultPlan::Kind::kCut:
      plan.truncate_to = file_size == 0 ? 0 : rng.NextBounded(file_size);
      break;
    case FaultPlan::Kind::kTruncateRecord:
      // Cut at a record boundary (including 0 = everything lost). With no
      // boundaries known, degenerate to an empty file.
      plan.truncate_to =
          record_ends.empty()
              ? 0
              : (rng.NextBounded(record_ends.size() + 1) == 0
                     ? 0
                     : record_ends[rng.NextBounded(record_ends.size())]);
      break;
    case FaultPlan::Kind::kTornWrite:
      plan.truncate_to = file_size == 0 ? 0 : rng.NextBounded(file_size);
      plan.garbage_len = 1 + static_cast<uint32_t>(rng.NextBounded(64));
      plan.garbage_seed = rng.Next();
      break;
  }
  return plan;
}

Status FaultFile::Apply(const std::string& path, const FaultPlan& plan) {
  if (::truncate(path.c_str(), static_cast<off_t>(plan.truncate_to)) != 0) {
    return ErrnoStatus("faultfile: cannot truncate", path);
  }
  if (plan.garbage_len == 0) return Status::Ok();
  std::string garbage;
  garbage.reserve(plan.garbage_len);
  Rng rng(plan.garbage_seed);
  for (uint32_t i = 0; i < plan.garbage_len; ++i) {
    garbage.push_back(static_cast<char>(rng.NextBounded(256)));
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return ErrnoStatus("faultfile: cannot open", path);
  const Status s = WriteAll(fd, garbage)
                       ? Status::Ok()
                       : ErrnoStatus("faultfile: cannot write", path);
  ::close(fd);
  return s;
}

}  // namespace gemini
