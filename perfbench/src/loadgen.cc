#include "loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <thread>

namespace perfbench {

namespace {

std::string Lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

}  // namespace

KeepAliveClient::KeepAliveClient(uint16_t port, int timeout_ms)
    : port_(port), timeout_ms_(timeout_ms) {}

KeepAliveClient::~KeepAliveClient() { Close(); }

void KeepAliveClient::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  buf_.clear();
  pos_ = 0;
}

bool KeepAliveClient::Connect() {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = (timeout_ms_ % 1000) * 1000;
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool KeepAliveClient::Fill(size_t n, Exchange* out) {
  char chunk[64 * 1024];
  while (buf_.size() - pos_ < n) {
    const ssize_t got = recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;  // closed, reset or SO_RCVTIMEO expired
    if (out->first_byte == Clock::time_point()) out->first_byte = Clock::now();
    buf_.append(chunk, static_cast<size_t>(got));
  }
  return true;
}

bool KeepAliveClient::ReadResponse(Exchange* out) {
  buf_.erase(0, pos_);
  pos_ = 0;
  auto read_line = [&](std::string* line) {
    while (true) {
      const size_t eol = buf_.find("\r\n", pos_);
      if (eol != std::string::npos) {
        line->assign(buf_, pos_, eol - pos_);
        pos_ = eol + 2;
        return true;
      }
      if (!Fill(buf_.size() - pos_ + 1, out)) return false;
    }
  };
  std::string line;
  if (!read_line(&line) || line.size() < 12 || line.compare(0, 5, "HTTP/")) {
    return false;
  }
  out->status = std::atoi(line.c_str() + 9);
  size_t content_length = 0;
  bool chunked = false;
  bool close_after = false;
  while (true) {
    if (!read_line(&line)) return false;
    if (line.empty()) break;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = Lower(std::string_view(line).substr(0, colon));
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(' '));
    if (name == "content-length") {
      content_length = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "transfer-encoding") {
      chunked = Lower(value).find("chunked") != std::string::npos;
    } else if (name == "connection") {
      close_after = Lower(value) == "close";
    }
  }
  if (chunked) {
    while (true) {
      if (!read_line(&line)) return false;
      const size_t size = std::strtoull(line.c_str(), nullptr, 16);
      if (size == 0) {
        do {  // optional trailers, then the blank line
          if (!read_line(&line)) return false;
        } while (!line.empty());
        break;
      }
      if (!Fill(size + 2, out)) return false;
      out->body.append(buf_, pos_, size);
      pos_ += size + 2;
    }
  } else {
    if (!Fill(content_length, out)) return false;
    out->body.assign(buf_, pos_, content_length);
    pos_ += content_length;
  }
  out->done = Clock::now();
  if (close_after) Close();
  return true;
}

Exchange KeepAliveClient::Send(const Request& request) {
  Exchange ex;
  ex.start = Clock::now();
  if (fd_ < 0 && !Connect()) {
    ex.done = Clock::now();
    return ex;
  }
  std::string wire = RequestHead(request);
  wire += request.text;
  std::string_view rest = wire;
  while (!rest.empty()) {
    const ssize_t n = send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      ex.done = Clock::now();
      return ex;
    }
    rest.remove_prefix(static_cast<size_t>(n));
  }
  if (!ReadResponse(&ex)) {
    Close();
    ex.status = 0;
    ex.done = Clock::now();
  }
  if (ex.first_byte == Clock::time_point()) ex.first_byte = ex.done;
  return ex;
}

namespace {

constexpr int kTimeoutMs = 10000;
constexpr size_t kMaxErrors = 5;

/// Shared clock of one traffic phase.
struct Phase {
  Clock::time_point start;
  Clock::time_point measure_begin;
  Clock::time_point end;
  Clock::duration window;
  bool alternate_tracing = false;

  bool Traced(Clock::time_point t) const {
    if (!alternate_tracing || t < measure_begin) return false;
    return ((t - measure_begin) / window) % 2 == 1;
  }
};

/// Records one finished exchange. `due` is the open-loop schedule time, or
/// the send time for closed loops. Reader SELECTs keep their text for the
/// answer check after the run; probes are checked here.
void Record(const Phase& phase, const Request& request, const Exchange& ex,
            Clock::time_point due, bool check_later, ThreadLog* log) {
  Sample s;
  s.end_s = Seconds(ex.done - phase.measure_begin);
  s.latency_ms = Millis(ex.done - due);
  s.is_update = request.is_update;
  s.measured = due >= phase.measure_begin;
  s.traced = phase.Traced(due);
  s.ok = ex.status == 200;
  if (s.ok && !request.is_update) {
    s.digest = DigestJsonResults(ex.body);
    s.ok = request.probe ? ProbeHolds(request, ex.body) : s.digest.parsed;
    if (check_later) {
      s.text = static_cast<int32_t>(log->texts.size());
      log->texts.push_back(request.text);
    }
  }
  if (!s.ok && log->errors.size() < kMaxErrors) {
    log->errors.push_back("status " + std::to_string(ex.status) + " for '" +
                          request.text.substr(0, 160) + "': " +
                          ex.body.substr(0, 200));
  }
  if (s.traced) {
    const uint64_t id = log->samples.size();
    const int32_t root = log->tracer.Add("http.request", id, -1, ex.start,
                                         ex.done);
    log->tracer.Add("http.wait_first_byte", id, root, ex.start,
                    ex.first_byte);
    log->tracer.Add("http.read_body", id, root, ex.first_byte, ex.done);
  }
  log->samples.push_back(s);
}

void ClosedLoop(const Phase& phase, const TrafficPlan& plan, bool reader,
                int index, ThreadLog* log) {
  const TrafficShape traffic = TrafficFor(plan.workload);
  KeepAliveClient client(plan.port, kTimeoutMs);
  std::optional<ReaderStream> readers;
  std::optional<WriterStream> writers;
  if (reader) {
    readers.emplace(plan.shape, plan.seed, index);
  } else {
    writers.emplace(plan.workload, plan.shape, plan.seed, index,
                    traffic.writers);
  }
  std::this_thread::sleep_until(phase.start);
  while (Clock::now() < phase.end) {
    const Request request = reader ? readers->Next() : writers->Next();
    const Exchange ex = client.Send(request);
    Record(phase, request, ex, ex.start, reader, log);
  }
}

void OpenLoop(const Phase& phase, const TrafficPlan& plan, int index,
              double rate, ThreadLog* log) {
  const TrafficShape traffic = TrafficFor(plan.workload);
  KeepAliveClient client(plan.port, kTimeoutMs);
  WriterStream writers(plan.workload, plan.shape, plan.seed, index,
                       traffic.writers);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due = phase.start + interval * k;
    if (due >= phase.end) break;
    std::this_thread::sleep_until(due);
    const Request request = writers.Next();
    const Exchange ex = client.Send(request);
    if (due >= phase.measure_begin) {
      log->lag_ms.push_back(std::max(0.0, Millis(ex.start - due)));
    }
    Record(phase, request, ex, due, false, log);
  }
}

}  // namespace

std::vector<ThreadLog> RunTraffic(const TrafficPlan& plan) {
  const TrafficShape traffic = TrafficFor(plan.workload);
  Phase phase;
  phase.start = Clock::now() + std::chrono::milliseconds(20);
  phase.measure_begin =
      phase.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(plan.warmup_s));
  phase.window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(plan.measure_s / plan.windows));
  phase.end = phase.measure_begin + phase.window * plan.windows;
  phase.alternate_tracing = plan.alternate_tracing;

  std::vector<ThreadLog> logs(
      static_cast<size_t>(traffic.readers + traffic.writers));
  std::vector<std::thread> threads;
  for (int r = 0; r < traffic.readers; ++r) {
    threads.emplace_back(ClosedLoop, std::cref(phase), std::cref(plan), true,
                         r, &logs[static_cast<size_t>(r)]);
  }
  for (int w = 0; w < traffic.writers; ++w) {
    ThreadLog* log = &logs[static_cast<size_t>(traffic.readers + w)];
    if (traffic.writer_rate > 0) {
      threads.emplace_back(OpenLoop, std::cref(phase), std::cref(plan), w,
                           traffic.writer_rate, log);
    } else {
      threads.emplace_back(ClosedLoop, std::cref(phase), std::cref(plan),
                           false, w, log);
    }
  }
  for (std::thread& t : threads) t.join();
  return logs;
}

}  // namespace perfbench
