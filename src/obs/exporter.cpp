#include "obs/exporter.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"

namespace rhhh::obs {

namespace {

constexpr int kAcceptPollMs = 100;        // stop() latency bound
constexpr int kRequestPollMs = 500;       // per-request read patience
constexpr std::size_t kMaxHead = 16 * 1024;  // read_request()'s cap

std::string status_line(int code) {
  switch (code) {
    case 200: return "HTTP/1.0 200 OK\r\n";
    case 400: return "HTTP/1.0 400 Bad Request\r\n";
    case 404: return "HTTP/1.0 404 Not Found\r\n";
    case 405: return "HTTP/1.0 405 Method Not Allowed\r\n";
    case 414: return "HTTP/1.0 414 URI Too Long\r\n";
    default: return "HTTP/1.0 500 Internal Server Error\r\n";
  }
}

void respond(int fd, int code, const std::string& content_type,
             const std::string& body) {
  std::string out = status_line(code);
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  detail::send_all(fd, out);
}

/// "GET <path> HTTP/1.x" -> {0, path}; anything else -> a 4xx code and "".
/// A head that hit read_request()'s size cap without a terminator is 414,
/// a recognizable non-GET method is 405, everything unparseable is 400.
struct ParsedRequest {
  int error = 0;
  std::string path;
};

ParsedRequest parse_request(const std::string& req) {
  if (req.size() >= kMaxHead && req.find("\r\n\r\n") == std::string::npos) {
    return {414, {}};
  }
  const std::size_t m = req.find(' ');
  if (m == std::string::npos || m == 0) return {400, {}};
  const std::size_t sp = req.find(' ', m + 1);
  if (sp == std::string::npos || sp == m + 1) return {400, {}};
  if (req.compare(0, m, "GET") != 0) return {405, {}};
  return {0, req.substr(m + 1, sp - m - 1)};
}

/// Split "<route>?<query>" -- routes never contain '?', so everything past
/// the first one is the query string.
void split_query(const std::string& path, std::string& route,
                 std::string& query) {
  const std::size_t q = path.find('?');
  route = path.substr(0, q);
  query = q == std::string::npos ? std::string{} : path.substr(q + 1);
}

/// The numeric value of `key` in an "a=1&b=2" query string, or `fallback`
/// when absent/non-numeric.
std::uint64_t query_u64(const std::string& query, const std::string& key,
                        std::uint64_t fallback) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0 && eq + 1 < amp) {
      std::uint64_t v = 0;
      bool numeric = true;
      for (std::size_t i = eq + 1; i < amp; ++i) {
        const char c = query[i];
        if (c < '0' || c > '9') {
          numeric = false;
          break;
        }
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (numeric) return v;
    }
    pos = amp + 1;
  }
  return fallback;
}

std::string trace_json(const TraceRing& ring, std::uint64_t limit) {
  std::vector<TraceRecord> recs = ring.dump();
  if (limit < recs.size()) {
    // dump() is oldest-first; ?n= keeps the newest n.
    recs.erase(recs.begin(),
               recs.end() - static_cast<std::ptrdiff_t>(limit));
  }
  std::string out = "{\"recorded\":" + std::to_string(ring.recorded()) +
                    ",\"capacity\":" + std::to_string(ring.capacity()) +
                    ",\"events\":";
  out += trace_records_json(recs);
  out += '}';
  return out;
}

}  // namespace

namespace detail {

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // signal, not a dead client
    if (n <= 0) return;  // client went away; nothing to recover
    off += static_cast<std::size_t>(n);
  }
}

/// Read until the header terminator (one request per connection; bodies are
/// ignored -- every route is a GET).
std::string read_request(int fd) {
  std::string req;
  char buf[2048];
  struct pollfd pfd = {fd, POLLIN, 0};
  while (req.size() < 16 * 1024 && req.find("\r\n\r\n") == std::string::npos) {
    const int rc = ::poll(&pfd, 1, kRequestPollMs);
    if (rc < 0 && errno == EINTR) continue;  // signal, not a timeout
    if (rc <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }
  return req;
}

}  // namespace detail

MetricsExporter::MetricsExporter(MetricsRegistry& reg, TraceRing* trace)
    : reg_(&reg), trace_(trace) {}

MetricsExporter::~MetricsExporter() { stop(); }

void MetricsExporter::start(std::uint16_t port) {
  // order: relaxed -- start/stop are caller-serialized; the flag only
  // signals the serving thread and running() observers.
  if (running_.load(std::memory_order_relaxed)) return;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("obs: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("obs: bind/listen failed: ") +
                             std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);

  listen_fd_ = fd;
  // order: relaxed -- published before the thread is constructed; the
  // std::thread launch itself is the synchronization point.
  port_.store(ntohs(addr.sin_port), std::memory_order_relaxed);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
}

void MetricsExporter::stop() {
  // order: relaxed -- the serving thread re-checks this between polls; the
  // join below is the real synchronization.
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // order: relaxed -- observational reset.
  port_.store(0, std::memory_order_relaxed);
}

void MetricsExporter::serve_loop() {
  struct pollfd pfd = {listen_fd_, POLLIN, 0};
  // order: relaxed -- loop condition; stop() joins, so a stale true costs
  // at most one extra poll timeout.
  while (running_.load(std::memory_order_relaxed)) {
    const int rc = ::poll(&pfd, 1, kAcceptPollMs);
    if (rc <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    const ParsedRequest parsed = parse_request(detail::read_request(client));
    // order: relaxed -- a statistic.
    scrapes_.fetch_add(1, std::memory_order_relaxed);
    // order: acquire -- pairs with set_health_source()'s release store.
    const HealthLedger* health = health_.load(std::memory_order_acquire);
    std::string route;
    std::string query;
    split_query(parsed.path, route, query);
    if (parsed.error != 0) {
      respond(client, parsed.error, "text/plain", "bad request\n");
    } else if (route == "/metrics") {
      respond(client, 200, "text/plain; version=0.0.4",
              reg_->render_prometheus());
    } else if (route == "/metrics.json") {
      respond(client, 200, "application/json", reg_->render_json());
    } else if (route == "/trace" && trace_ != nullptr) {
      respond(client, 200, "application/json",
              trace_json(*trace_, query_u64(query, "n", ~std::uint64_t{0})));
    } else if (route == "/health" && health != nullptr) {
      respond(client, 200, "application/json", health->render_json());
    } else if (route == "/healthz") {
      respond(client, 200, "text/plain", "ok\n");
    } else {
      respond(client, 404, "text/plain", "not found\n");
    }
    ::close(client);
  }
}

std::string http_get_local(std::uint16_t port, const std::string& path,
                           int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  detail::send_all(fd, req);
  std::string resp;
  char buf[4096];
  struct pollfd pfd = {fd, POLLIN, 0};
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;  // signal, not a timeout
    if (rc <= 0) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

}  // namespace rhhh::obs
