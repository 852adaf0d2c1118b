#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"
#include "net/http.h"

namespace slider {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Result<int> Connect(const std::string& host, uint16_t port, int timeout_ms) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(Format("socket: %s", std::strerror(errno)));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  // Requests go out in one send(); Nagle could only delay them.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument(Format("bad host '%s'", host.c_str()));
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::IOError(Format("connect: %s", std::strerror(errno)));
    close(fd);
    return status;
  }
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// Decodes a chunked body; `input` must hold the complete body.
Result<std::string> DecodeChunked(std::string_view input) {
  std::string out;
  size_t pos = 0;
  while (true) {
    const size_t line_end = input.find("\r\n", pos);
    if (line_end == std::string_view::npos) {
      return Status::InvalidArgument("truncated chunk header");
    }
    const std::string size_text(input.substr(pos, line_end - pos));
    char* end = nullptr;
    const unsigned long long size = std::strtoull(size_text.c_str(), &end, 16);
    if (end == size_text.c_str()) {
      return Status::InvalidArgument("malformed chunk size");
    }
    pos = line_end + 2;
    if (size == 0) return out;
    if (pos + size + 2 > input.size()) {
      return Status::InvalidArgument("truncated chunk body");
    }
    out.append(input.substr(pos, size));
    pos += size + 2;  // skip the chunk's trailing CRLF
  }
}

}  // namespace

std::string_view HttpResponse::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return {};
}

HttpClient::HttpClient(std::string host, uint16_t port, int timeout_ms)
    : host_(std::move(host)), port_(port), timeout_ms_(timeout_ms) {}

Result<HttpResponse> HttpClient::Get(std::string_view target,
                                     std::string_view accept) {
  std::string request = Format("GET %.*s HTTP/1.1\r\nHost: %s\r\n",
                               static_cast<int>(target.size()), target.data(),
                               host_.c_str());
  if (!accept.empty()) {
    request += "Accept: ";
    request += accept;
    request += "\r\n";
  }
  request += "Connection: close\r\n\r\n";
  return Roundtrip(request);
}

Result<HttpResponse> HttpClient::Post(std::string_view target,
                                      std::string_view content_type,
                                      std::string_view body,
                                      std::string_view accept) {
  std::string request = Format("POST %.*s HTTP/1.1\r\nHost: %s\r\n",
                               static_cast<int>(target.size()), target.data(),
                               host_.c_str());
  request += Format("Content-Type: %.*s\r\nContent-Length: %zu\r\n",
                    static_cast<int>(content_type.size()),
                    content_type.data(), body.size());
  if (!accept.empty()) {
    request += "Accept: ";
    request += accept;
    request += "\r\n";
  }
  request += "Connection: close\r\n\r\n";
  request += body;
  return Roundtrip(request);
}

Result<int> HttpClient::ConnectAndSend(std::string_view data) {
  SLIDER_ASSIGN_OR_RETURN(const int fd, Connect(host_, port_, timeout_ms_));
  if (!SendAll(fd, data)) {
    close(fd);
    return Status::IOError("send failed");
  }
  return fd;
}

Result<HttpResponse> HttpClient::Roundtrip(const std::string& request) {
  SLIDER_ASSIGN_OR_RETURN(const int fd, Connect(host_, port_, timeout_ms_));
  if (!SendAll(fd, request)) {
    close(fd);
    return Status::IOError("send failed");
  }
  const Clock::time_point sent = Clock::now();

  std::string raw;
  char buf[8192];
  Clock::time_point first_byte{};
  while (true) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      close(fd);
      return Status::IOError(Format("recv: %s", std::strerror(errno)));
    }
    if (n == 0) break;
    if (raw.empty()) first_byte = Clock::now();
    raw.append(buf, static_cast<size_t>(n));
  }
  const Clock::time_point done = Clock::now();
  close(fd);
  if (raw.empty()) {
    return Status::IOError("empty response");
  }

  HttpResponse response;
  response.ttfb_seconds = Seconds(sent, first_byte);
  response.total_seconds = Seconds(sent, done);

  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::InvalidArgument("truncated response head");
  }
  const std::string_view head = std::string_view(raw).substr(0, head_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  // "HTTP/1.1 200 OK"
  const size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > status_line.size()) {
    return Status::InvalidArgument("malformed status line");
  }
  response.status = std::atoi(std::string(status_line.substr(sp + 1)).c_str());

  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t end = head.find("\r\n", pos);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view line = head.substr(pos, end - pos);
    pos = end + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string key(line.substr(0, colon));
    for (char& c : key) c = static_cast<char>(std::tolower(c));
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    response.headers.emplace_back(std::move(key), std::string(value));
  }

  const std::string_view body = std::string_view(raw).substr(head_end + 4);
  if (response.Header("transfer-encoding") == "chunked") {
    SLIDER_ASSIGN_OR_RETURN(response.body, DecodeChunked(body));
  } else {
    response.body = std::string(body);
  }
  return response;
}

}  // namespace net
}  // namespace slider
