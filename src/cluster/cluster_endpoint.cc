#include "src/cluster/cluster_endpoint.h"

#include <utility>

#include "src/common/logging.h"

namespace gemini {

namespace {

OpContext InternalContext() {
  return OpContext{kInternalConfigId, kInvalidFragment};
}

// Per-call socket timeouts. Control traffic is tiny; anything slower than
// this is as good as down for the coordinator's purposes.
constexpr Duration kIoTimeout = Seconds(1);
constexpr Duration kConnectTimeout = Millis(500);

}  // namespace

void ClusterEndpoint::Attach(const std::string& host, uint16_t port) {
  std::lock_guard<std::mutex> lock(mu_);
  if (conn_ && host == host_ && port == port_) return;  // same address: keep
  host_ = host;
  port_ = port;
  TcpConnection::Options opts;
  opts.io_timeout = kIoTimeout;
  opts.connect_timeout = kConnectTimeout;
  conn_ = TcpConnection::Acquire(host_, port_, id_, opts);
}

void ClusterEndpoint::SetUp(bool up) {
  std::lock_guard<std::mutex> lock(mu_);
  up_ = up;
}

bool ClusterEndpoint::available() const {
  std::lock_guard<std::mutex> lock(mu_);
  return up_ && conn_ != nullptr;
}

std::shared_ptr<TcpConnection> ClusterEndpoint::Conn() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!up_) return nullptr;
  return conn_;
}

template <wire::Op op, typename... Args>
wire::CallResult<op> ClusterEndpoint::Call(const Args&... args) {
  auto conn = Conn();
  if (!conn) return Status(Code::kUnavailable, "instance endpoint down");
  return conn->Call<op>(args...);
}

void ClusterEndpoint::GrantLease(FragmentId fragment, ConfigId min_valid_config,
                                 Duration ttl, ConfigId latest_config) {
  const Status s = Call<wire::Op::kLeaseGrant>(
      fragment, min_valid_config, static_cast<uint64_t>(ttl), latest_config);
  if (!s.ok()) {
    LOG_WARN << "instance " << id_ << ": lease grant for fragment " << fragment
             << " failed: " << s.ToString();
  }
}

void ClusterEndpoint::RevokeLease(FragmentId fragment, ConfigId latest_config) {
  const Status s = Call<wire::Op::kLeaseRevoke>(fragment, latest_config);
  if (!s.ok()) {
    LOG_WARN << "instance " << id_ << ": lease revoke for fragment "
             << fragment << " failed: " << s.ToString();
  }
}

Result<CacheValue> ClusterEndpoint::Get(std::string_view key) {
  return Call<wire::Op::kGet>(InternalContext(), key);
}

Status ClusterEndpoint::Set(std::string_view key, CacheValue value) {
  return Call<wire::Op::kSet>(InternalContext(), key, value);
}

Status ClusterEndpoint::Delete(std::string_view key) {
  return Call<wire::Op::kDelete>(InternalContext(), key);
}

}  // namespace gemini
