#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// Load generator: one keep-alive HTTP/1.1 connection per generator thread,
// closed-loop readers and writers, open-loop writers timed from their due
// time. Failures are counted, never fatal.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "requests.h"

namespace perfbench {

/// One request/response exchange as the client saw it.
struct Exchange {
  int status = 0;  ///< 0 on transport error or timeout
  std::string body;
  Clock::time_point start;       ///< first byte of the request written
  Clock::time_point first_byte;  ///< first byte of the response read
  Clock::time_point done;        ///< last byte of the response read
};

/// \brief Minimal keep-alive SPARQL-protocol client. Unlike
/// net::HttpClient it keeps its connection across requests and its clock
/// starts before the request is written.
class KeepAliveClient {
 public:
  KeepAliveClient(uint16_t port, int timeout_ms);
  ~KeepAliveClient();
  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  /// Sends `request`, connecting first when no connection is open, and
  /// reads the whole response (Content-Length or chunked).
  Exchange Send(const Request& request);

 private:
  bool Connect();
  void Close();
  bool ReadResponse(Exchange* out);
  /// Ensures `buf_` holds at least `n` bytes past `pos_`.
  bool Fill(size_t n, Exchange* out);

  uint16_t port_;
  int timeout_ms_;
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// One completed request of the timed phase.
struct Sample {
  double end_s = 0;       ///< seconds since the measured phase began
  double latency_ms = 0;  ///< open loop: from the due time
  bool is_update = false;
  bool ok = false;
  bool measured = false;  ///< false for warm-up requests
  bool traced = false;    ///< issued in a traced window
  int32_t text = -1;      ///< index into ThreadLog::texts (checked SELECTs)
  ResultDigest digest;
};

/// Everything one generator thread recorded.
struct ThreadLog {
  std::vector<Sample> samples;
  std::vector<std::string> texts;  ///< SELECT texts to check after the run
  std::vector<double> lag_ms;      ///< open loop: send time minus due time
  Tracer tracer;                   ///< client spans of traced windows
  std::vector<std::string> errors;  ///< first few failure descriptions
};

struct TrafficPlan {
  Workload workload = Workload::kReadMostly;
  Shape shape;
  uint64_t seed = 0;
  uint16_t port = 0;
  double warmup_s = 1;
  double measure_s = 10;
  /// Number of equal windows the measured phase is cut into; with
  /// `alternate_tracing`, odd windows record client spans.
  int windows = 1;
  bool alternate_tracing = false;
};

/// Runs the workload's readers and writers against the server on
/// `plan.port` for warm-up plus the measured phase. Reader logs come
/// first, then writer logs.
std::vector<ThreadLog> RunTraffic(const TrafficPlan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
