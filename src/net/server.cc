#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/string_util.h"
#include "net/result_serializer.h"

namespace slider {
namespace net {

namespace {

void SetSocketTimeouts(int fd, int recv_ms, int send_ms) {
  timeval rcv{};
  rcv.tv_sec = recv_ms / 1000;
  rcv.tv_usec = (recv_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv, sizeof(rcv));
  timeval snd{};
  snd.tv_sec = send_ms / 1000;
  snd.tv_usec = (send_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd, sizeof(snd));
}

/// Closes a connection without destroying any response still in flight:
/// close() on a socket with unread bytes in its receive queue sends RST,
/// which makes the peer drop data it has not yet read. Signal end-of-
/// response with FIN first, then swallow whatever request bytes remain.
void DrainAndClose(int fd) {
  shutdown(fd, SHUT_WR);
  char buf[1024];
  while (recv(fd, buf, sizeof(buf), MSG_DONTWAIT) > 0) {
  }
  close(fd);
}

/// True iff the Accept header admits `media` ("" and */* admit anything).
bool Accepts(std::string_view accept, std::string_view media) {
  if (accept.empty()) return true;
  size_t pos = 0;
  while (pos < accept.size()) {
    size_t comma = accept.find(',', pos);
    if (comma == std::string_view::npos) comma = accept.size();
    std::string_view item = accept.substr(pos, comma - pos);
    const size_t semi = item.find(';');  // strip quality parameters
    if (semi != std::string_view::npos) item = item.substr(0, semi);
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    if (item == media || item == "*/*") return true;
    // Type wildcard ("application/*").
    const size_t slash = media.find('/');
    if (slash != std::string_view::npos && item.size() > 2 &&
        item.substr(item.size() - 2) == "/*" &&
        item.substr(0, item.size() - 2) == media.substr(0, slash)) {
      return true;
    }
    pos = comma + 1;
  }
  return false;
}

/// Strips any ";charset=..." parameters off a Content-Type value.
std::string_view MediaType(std::string_view content_type) {
  const size_t semi = content_type.find(';');
  if (semi != std::string_view::npos) {
    content_type = content_type.substr(0, semi);
  }
  while (!content_type.empty() && content_type.back() == ' ') {
    content_type.remove_suffix(1);
  }
  return content_type;
}

}  // namespace

SparqlHttpServer::SparqlHttpServer(SparqlEndpoint* endpoint, Options options)
    : endpoint_(endpoint),
      options_(options),
      coalescer_(std::make_unique<UpdateCoalescer>(endpoint,
                                                   options.coalescer)),
      pending_(options.max_queued) {}

SparqlHttpServer::~SparqlHttpServer() { Stop(); }

Status SparqlHttpServer::Start() {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(Format("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument(
        Format("bad listen address '%s'", options_.host.c_str()));
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::IOError(Format("bind: %s", std::strerror(errno)));
    close(fd);
    return status;
  }
  if (listen(fd, 128) < 0) {
    const Status status =
        Status::IOError(Format("listen: %s", std::strerror(errno)));
    close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);

  workers_.reserve(static_cast<size_t>(options_.worker_threads));
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SparqlHttpServer::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    // shutdown() unblocks the acceptor's accept() even on platforms where
    // close() alone does not.
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();
  pending_.Close();
  for (int fd : pending_.DrainAll()) close(fd);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  coalescer_->Stop();
}

void SparqlHttpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;  // retired by Stop()
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener gone
    }
    SetSocketTimeouts(fd, options_.recv_timeout_ms, options_.send_timeout_ms);
    // Responses leave in whole writes, so Nagle has nothing to coalesce and
    // would only hold a response's tail for the peer's delayed ACK.
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!pending_.TryPush(fd)) {
      // Saturated: every worker busy and the backlog full. Shed load now —
      // a canned 503 with Retry-After, no request read.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      const std::string response =
          SimpleResponse(503, "text/plain", "service saturated, retry\n",
                         /*keep_alive=*/false, {"Retry-After: 1"});
      (void)WriteAll(fd, response);
      DrainAndClose(fd);
    }
  }
}

void SparqlHttpServer::WorkerLoop() {
  while (true) {
    std::optional<int> fd = pending_.Pop();
    if (!fd.has_value()) return;  // queue closed and drained
    HandleConnection(*fd);
  }
}

void SparqlHttpServer::HandleConnection(int fd) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int http_status = 0;
    bool saw_bytes = false;
    Result<HttpRequest> request =
        ReadHttpRequest(fd, options_.limits, &http_status, &saw_bytes);
    if (!request.ok()) {
      if (http_status != 0) {
        client_errors_.fetch_add(1, std::memory_order_relaxed);
        (void)WriteAll(
            fd, SimpleResponse(http_status, "text/plain",
                               request.status().message() + "\n",
                               /*keep_alive=*/false));
      } else if (saw_bytes) {
        disconnects_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    const bool keep_alive = request->Header("connection") != "close";
    if (!HandleRequest(fd, *request, keep_alive)) break;
  }
  DrainAndClose(fd);
}

bool SparqlHttpServer::HandleRequest(int fd, const HttpRequest& request,
                                     const bool keep_alive) {
  if (request.path != "/sparql") {
    client_errors_.fetch_add(1, std::memory_order_relaxed);
    return WriteAll(fd, SimpleResponse(404, "text/plain",
                                       "unknown path; POST or GET /sparql\n",
                                       keep_alive)) &&
           keep_alive;
  }
  const std::string_view accept = request.Header("accept");

  if (request.method == "GET") {
    Result<std::vector<std::pair<std::string, std::string>>> params =
        ParseForm(request.query);
    if (!params.ok()) {
      client_errors_.fetch_add(1, std::memory_order_relaxed);
      return WriteAll(fd, SimpleResponse(400, "text/plain",
                                         params.status().message() + "\n",
                                         keep_alive)) &&
             keep_alive;
    }
    for (const auto& [key, value] : *params) {
      if (key == "query") return ServeQuery(fd, value, accept, keep_alive);
      if (key == "update") {
        // SPARQL 1.1 Protocol: updates must not ride on GET.
        client_errors_.fetch_add(1, std::memory_order_relaxed);
        return WriteAll(fd, SimpleResponse(400, "text/plain",
                                           "updates require POST\n",
                                           keep_alive)) &&
               keep_alive;
      }
    }
    client_errors_.fetch_add(1, std::memory_order_relaxed);
    return WriteAll(fd, SimpleResponse(400, "text/plain",
                                       "missing query parameter\n",
                                       keep_alive)) &&
           keep_alive;
  }

  if (request.method == "POST") {
    const std::string_view media = MediaType(request.Header("content-type"));
    if (media == "application/sparql-query") {
      return ServeQuery(fd, request.body, accept, keep_alive);
    }
    if (media == "application/sparql-update") {
      return ServeUpdate(fd, request.body, keep_alive);
    }
    if (media == "application/x-www-form-urlencoded") {
      Result<std::vector<std::pair<std::string, std::string>>> params =
          ParseForm(request.body);
      if (!params.ok()) {
        client_errors_.fetch_add(1, std::memory_order_relaxed);
        return WriteAll(fd, SimpleResponse(400, "text/plain",
                                           params.status().message() + "\n",
                                           keep_alive)) &&
               keep_alive;
      }
      for (const auto& [key, value] : *params) {
        if (key == "query") return ServeQuery(fd, value, accept, keep_alive);
        if (key == "update") return ServeUpdate(fd, value, keep_alive);
      }
      client_errors_.fetch_add(1, std::memory_order_relaxed);
      return WriteAll(fd, SimpleResponse(400, "text/plain",
                                         "missing query/update parameter\n",
                                         keep_alive)) &&
             keep_alive;
    }
    client_errors_.fetch_add(1, std::memory_order_relaxed);
    return WriteAll(fd,
                    SimpleResponse(415, "text/plain",
                                   "unsupported Content-Type for /sparql\n",
                                   keep_alive)) &&
           keep_alive;
  }

  client_errors_.fetch_add(1, std::memory_order_relaxed);
  return WriteAll(fd, SimpleResponse(405, "text/plain", "use GET or POST\n",
                                     keep_alive)) &&
         keep_alive;
}

bool SparqlHttpServer::ServeQuery(int fd, const std::string& query,
                                  std::string_view accept,
                                  const bool keep_alive) {
  // Negotiate before evaluating: JSON by default, TSV when asked for.
  const bool want_json = Accepts(accept, kJsonMediaType);
  const bool want_tsv = Accepts(accept, kTsvMediaType);
  if (!want_json && !want_tsv) {
    client_errors_.fetch_add(1, std::memory_order_relaxed);
    return WriteAll(
               fd, SimpleResponse(406, "text/plain",
                                  "supported: application/sparql-results+json, "
                                  "text/tab-separated-values\n",
                                  keep_alive)) &&
           keep_alive;
  }
  const std::string_view media = want_json ? kJsonMediaType : kTsvMediaType;

  // One buffer per response: the serializer output accumulates here and
  // goes out one chunk per kFlushBytes, the first behind the response head
  // and the remainder together with the last chunk, so a small result is a
  // single send(). A send per row would let Nagle hold every segment after
  // the first until the peer's delayed ACK, ~40 ms per response.
  // SelectStreaming surfaces parse/plan errors before any sink callback, so
  // nothing has been sent when one occurs and it still gets a clean 400.
  constexpr size_t kFlushBytes = 16 * 1024;
  std::string body;
  bool started = false;
  bool write_failed = false;
  const auto send_chunk = [&](bool last) {
    std::string frame =
        started ? std::string() : ChunkedResponseHead(200, media, keep_alive);
    started = true;
    frame += EncodeChunk(body);
    body.clear();
    if (last) frame += kLastChunk;
    if (!WriteAll(fd, frame)) write_failed = true;
    return !write_failed;
  };
  WriteFn sink_write = [&](std::string_view data) {
    if (write_failed) return false;
    body.append(data);
    return body.size() < kFlushBytes || send_chunk(/*last=*/false);
  };

  const Dictionary* dict = endpoint_->repository()->dictionary();
  Status status;
  bool finished = false;
  if (want_json) {
    JsonSerializer serializer(dict, sink_write);
    status = endpoint_->SelectStreaming(query, &serializer);
    finished = status.ok() && serializer.Finish();
  } else {
    TsvSerializer serializer(dict, sink_write);
    status = endpoint_->SelectStreaming(query, &serializer);
    finished = status.ok() && serializer.Finish();
  }

  if (!status.ok() && !started) {
    // Nothing sent yet: answer with a real error response.
    client_errors_.fetch_add(1, std::memory_order_relaxed);
    return WriteAll(fd, SimpleResponse(400, "text/plain",
                                       status.message() + "\n", keep_alive)) &&
           keep_alive;
  }
  if (!status.ok() || !finished || write_failed) {
    // Mid-stream hangup (or a dead socket): the evaluation already aborted
    // via the sink's false return. An error after the first chunk has no
    // clean answer either. Close our side too.
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Counted before the final send, so a client that has read the whole
  // response also finds it counted.
  served_.fetch_add(1, std::memory_order_relaxed);
  if (!send_chunk(/*last=*/true)) {
    served_.fetch_sub(1, std::memory_order_relaxed);
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return keep_alive;
}

bool SparqlHttpServer::ServeUpdate(int fd, const std::string& update,
                                   const bool keep_alive) {
  Result<UpdateResult> outcome = coalescer_->Execute(update);
  if (!outcome.ok()) {
    client_errors_.fetch_add(1, std::memory_order_relaxed);
    return WriteAll(fd, SimpleResponse(400, "text/plain",
                                       outcome.status().message() + "\n",
                                       keep_alive)) &&
           keep_alive;
  }
  const std::string body = Format(
      "{\"inserted\":%zu,\"inferred\":%zu,\"removed\":%zu,\"matched\":%zu,"
      "\"derivations\":%llu}",
      outcome->inserted, outcome->inferred, outcome->removed,
      outcome->matched,
      static_cast<unsigned long long>(outcome->derivations));
  served_.fetch_add(1, std::memory_order_relaxed);  // see ServeQuery
  if (!WriteAll(fd, SimpleResponse(200, "application/json", body,
                                   keep_alive))) {
    served_.fetch_sub(1, std::memory_order_relaxed);
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return keep_alive;
}

bool SparqlHttpServer::WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET/timeout: client is gone
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

SparqlHttpServer::Stats SparqlHttpServer::stats() const {
  Stats out;
  out.served = served_.load(std::memory_order_relaxed);
  out.client_errors = client_errors_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.disconnects = disconnects_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace net
}  // namespace slider
