// SPARQL 1.1 Protocol conformance of the HTTP server: request routing and
// content negotiation, streamed JSON/TSV bodies, error status codes (400
// parse error, 404/405/406/415 routing, 413 oversized body, 503 admission
// reject), resilience — a client that disconnects mid-stream aborts
// its evaluation and leaves the server serving — and latency: small
// responses on a keep-alive connection are not held back by Nagle.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "query/endpoint.h"
#include "reason/fragment.h"
#include "reason/repository.h"

namespace slider {
namespace net {
namespace {

class ServerProtocolTest : public ::testing::Test {
 protected:
  ServerProtocolTest() {
    Repository::Options options;
    options.inference = Repository::InferenceMode::kIncremental;
    auto repo = Repository::Open(RhoDfFactory(), options);
    repo.status().AbortIfNotOk();
    repo_ = std::move(*repo);
    endpoint_ = std::make_unique<SparqlEndpoint>(repo_.get());
  }

  ~ServerProtocolTest() override {
    if (server_ != nullptr) server_->Stop();
  }

  void StartServer(SparqlHttpServer::Options options = {}) {
    server_ = std::make_unique<SparqlHttpServer>(endpoint_.get(), options);
    server_->Start().AbortIfNotOk();
    client_ = std::make_unique<HttpClient>("127.0.0.1", server_->port());
  }

  void Seed() {
    endpoint_
        ->Update(
            "PREFIX ex: <http://ex/>\n"
            "INSERT DATA { ex:a ex:p ex:b . ex:c ex:p ex:d . "
            "ex:lit ex:label \"caf\\u00e9 \\\"quoted\\\"\"@en }")
        .status()
        .AbortIfNotOk();
  }

  HttpResponse Get(const std::string& target, const std::string& accept = "") {
    auto response = client_->Get(target, accept);
    response.status().AbortIfNotOk();
    return response.MoveValueUnsafe();
  }

  HttpResponse Post(const std::string& content_type, const std::string& body,
                    const std::string& accept = "") {
    auto response = client_->Post("/sparql", content_type, body, accept);
    response.status().AbortIfNotOk();
    return response.MoveValueUnsafe();
  }

  std::unique_ptr<Repository> repo_;
  std::unique_ptr<SparqlEndpoint> endpoint_;
  std::unique_ptr<SparqlHttpServer> server_;
  std::unique_ptr<HttpClient> client_;
};

constexpr const char* kSelectP =
    "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y }";

TEST_F(ServerProtocolTest, GetQueryStreamsJsonByDefault) {
  StartServer();
  Seed();
  const HttpResponse response =
      Get("/sparql?query=PREFIX%20ex%3A%20%3Chttp%3A%2F%2Fex%2F%3E%20"
          "SELECT%20%3Fx%20WHERE%20%7B%20%3Fx%20ex%3Ap%20%3Fy%20%7D");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.Header("content-type"),
            "application/sparql-results+json");
  EXPECT_EQ(response.Header("transfer-encoding"), "chunked");
  EXPECT_NE(response.body.find("\"vars\":[\"x\"]"), std::string::npos);
  EXPECT_NE(response.body.find("http://ex/a"), std::string::npos);
  EXPECT_NE(response.body.find("http://ex/c"), std::string::npos);
}

TEST_F(ServerProtocolTest, PostSparqlQueryAndFormBothWork) {
  StartServer();
  Seed();
  const HttpResponse direct = Post("application/sparql-query", kSelectP);
  EXPECT_EQ(direct.status, 200);
  EXPECT_NE(direct.body.find("http://ex/a"), std::string::npos);

  const HttpResponse form =
      Post("application/x-www-form-urlencoded",
           "query=PREFIX%20ex%3A%20%3Chttp%3A%2F%2Fex%2F%3E%20SELECT%20%3Fx"
           "%20WHERE%20%7B%20%3Fx%20ex%3Ap%20%3Fy%20%7D");
  EXPECT_EQ(form.status, 200);
  EXPECT_NE(form.body.find("http://ex/a"), std::string::npos);
}

TEST_F(ServerProtocolTest, AcceptHeaderNegotiatesTsv) {
  StartServer();
  Seed();
  const HttpResponse response =
      Post("application/sparql-query", kSelectP, "text/tab-separated-values");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.Header("content-type"), "text/tab-separated-values");
  EXPECT_NE(response.body.find("?x\n"), std::string::npos);
  EXPECT_NE(response.body.find("<http://ex/a>\n"), std::string::npos);

  // Language-tagged literal survives TSV verbatim.
  const HttpResponse labels =
      Post("application/sparql-query",
           "PREFIX ex: <http://ex/> SELECT ?l WHERE { ?x ex:label ?l }",
           "text/tab-separated-values");
  EXPECT_NE(labels.body.find("@en"), std::string::npos);
}

TEST_F(ServerProtocolTest, UpdatesApplyThroughPostAndAnswerJson) {
  StartServer();
  const HttpResponse response =
      Post("application/sparql-update",
           "PREFIX ex: <http://ex/> INSERT DATA { ex:new ex:p ex:o }");
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"inserted\":1"), std::string::npos);

  const HttpResponse select = Post("application/sparql-query", kSelectP);
  EXPECT_NE(select.body.find("http://ex/new"), std::string::npos);

  // Form-encoded updates too.
  const HttpResponse form = Post(
      "application/x-www-form-urlencoded",
      "update=PREFIX%20ex%3A%20%3Chttp%3A%2F%2Fex%2F%3E%20INSERT%20DATA%20"
      "%7B%20ex%3Anew2%20ex%3Ap%20ex%3Ao%20%7D");
  EXPECT_EQ(form.status, 200);
}

TEST_F(ServerProtocolTest, ErrorStatusCodes) {
  StartServer();
  Seed();
  // 400: parse error in the query.
  EXPECT_EQ(Post("application/sparql-query", "SELECT WHERE {").status, 400);
  // 400: update via GET is forbidden by the protocol.
  EXPECT_EQ(Get("/sparql?update=INSERT%20DATA%20%7B%7D").status, 400);
  // 400: no query parameter.
  EXPECT_EQ(Get("/sparql").status, 400);
  // 404: unknown path.
  EXPECT_EQ(Get("/other").status, 404);
  // 405: unsupported method.
  {
    auto raw = client_->ConnectAndSend(
        "PUT /sparql HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
    ASSERT_TRUE(raw.ok());
    char buf[256];
    const ssize_t n = read(*raw, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    EXPECT_NE(std::string(buf, static_cast<size_t>(n)).find("405"),
              std::string::npos);
    close(*raw);
  }
  // 406: un-servable Accept.
  EXPECT_EQ(Post("application/sparql-query", kSelectP, "application/xml")
                .status,
            406);
  // 415: unknown POST content type.
  EXPECT_EQ(Post("text/csv", kSelectP).status, 415);
  // The server kept serving through all of that.
  EXPECT_EQ(Post("application/sparql-query", kSelectP).status, 200);
}

TEST_F(ServerProtocolTest, OversizedBodyGets413) {
  SparqlHttpServer::Options options;
  options.limits.max_body_bytes = 128;
  StartServer(options);
  const std::string big(1024, 'x');
  const HttpResponse response = Post("application/sparql-query", big);
  EXPECT_EQ(response.status, 413);
}

TEST_F(ServerProtocolTest, SaturationGets503) {
  SparqlHttpServer::Options options;
  options.worker_threads = 1;
  options.max_queued = 1;
  options.recv_timeout_ms = 2000;
  StartServer(options);

  // Stall the only worker: a connection with an unfinished request head.
  auto stalled = client_->ConnectAndSend("GET /sparql?query=x HTTP/1.1\r\n");
  ASSERT_TRUE(stalled.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Fill the one queue slot.
  auto queued = client_->ConnectAndSend("GET /sparql HTTP/1.1\r\n");
  ASSERT_TRUE(queued.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The next arrival must be shed at the door.
  auto rejected = client_->Get("/sparql?query=x");
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status, 503);
  EXPECT_EQ(rejected->Header("retry-after"), "1");
  EXPECT_GE(server_->stats().rejected, 1u);

  close(*stalled);
  close(*queued);
}

TEST_F(ServerProtocolTest, MidStreamDisconnectAbortsAndServerSurvives) {
  StartServer();
  // A result set big enough to overflow both socket buffers, so the server
  // is still streaming when the client vanishes.
  TripleVec bulk;
  Dictionary* dict = repo_->dictionary();
  const TermId p = dict->Encode("<http://ex/bulk>");
  const TermId o = dict->Encode("<http://ex/o>");
  for (int i = 0; i < 40000; ++i) {
    bulk.push_back(
        {dict->Encode("<http://ex/bulk-subject-number-" + std::to_string(i) +
                      ">"),
         p, o});
  }
  repo_->AddTriples(bulk).status().AbortIfNotOk();

  const std::string query =
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:bulk ?y }";
  const std::string request =
      "POST /sparql HTTP/1.1\r\nHost: x\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Content-Length: " +
      std::to_string(query.size()) + "\r\n\r\n" + query;
  auto fd = client_->ConnectAndSend(request);
  ASSERT_TRUE(fd.ok());
  // Read a little of the stream, then hang up mid-body.
  char buf[512];
  ASSERT_GT(read(*fd, buf, sizeof(buf)), 0);
  close(*fd);

  // The worker notices on its next blocked write, aborts the evaluation
  // and moves on. Poll the disconnect counter instead of sleeping blind.
  bool aborted = false;
  for (int i = 0; i < 100 && !aborted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    aborted = server_->stats().disconnects > 0;
  }
  EXPECT_TRUE(aborted);

  // And the server still answers.
  const HttpResponse after = Post(
      "application/sparql-query",
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:bulk ?y } LIMIT 1");
  EXPECT_EQ(after.status, 200);
}

TEST_F(ServerProtocolTest, KeepAliveServesSequentialRequests) {
  StartServer();
  Seed();
  // Two requests on one connection: the first answer must be followed by a
  // second on the same fd.
  const std::string q =
      "GET /sparql?query=PREFIX%20ex%3A%20%3Chttp%3A%2F%2Fex%2F%3E%20"
      "SELECT%20%3Fx%20WHERE%20%7B%20%3Fx%20ex%3Ap%20%3Fy%20%7D HTTP/1.1\r\n"
      "Host: x\r\n\r\n";
  auto fd = client_->ConnectAndSend(q);
  ASSERT_TRUE(fd.ok());
  char buf[4096];
  const auto read_one_response = [&]() {
    std::string raw;
    for (int i = 0; i < 100; ++i) {
      const ssize_t n = read(*fd, buf, sizeof(buf));
      if (n <= 0) break;
      raw.append(buf, static_cast<size_t>(n));
      if (raw.find("0\r\n\r\n") != std::string::npos) break;
    }
    return raw;
  };
  const std::string first = read_one_response();
  EXPECT_NE(first.find("200 OK"), std::string::npos);
  // Second request on the same (still-open) connection.
  ASSERT_GT(write(*fd, q.data(), q.size()), 0);
  const std::string second = read_one_response();
  EXPECT_NE(second.find("200 OK"), std::string::npos);
  close(*fd);
  EXPECT_GE(server_->stats().served, 2u);
}

TEST_F(ServerProtocolTest, SmallSelectsOnKeepAliveAreNotDelayed) {
  StartServer();
  Seed();
  // Twenty small SELECTs (two rows each) back to back on one keep-alive
  // connection. A response written in several small sends waits on Nagle
  // plus the peer's delayed ACK, ~40 ms per response; one write per
  // response, with TCP_NODELAY, answers each in well under a millisecond.
  const std::string q =
      "GET /sparql?query=PREFIX%20ex%3A%20%3Chttp%3A%2F%2Fex%2F%3E%20"
      "SELECT%20%3Fx%20WHERE%20%7B%20%3Fx%20ex%3Ap%20%3Fy%20%7D HTTP/1.1\r\n"
      "Host: x\r\n\r\n";
  auto fd = client_->ConnectAndSend(q);
  ASSERT_TRUE(fd.ok());
  const int one = 1;
  setsockopt(*fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  char buf[4096];
  const auto read_one_response = [&]() {
    std::string raw;
    while (raw.size() < 5 ||
           raw.compare(raw.size() - 5, 5, "0\r\n\r\n") != 0) {
      const ssize_t n = read(*fd, buf, sizeof(buf));
      if (n <= 0) break;
      raw.append(buf, static_cast<size_t>(n));
    }
    return raw;
  };
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    if (i > 0) {
      ASSERT_EQ(write(*fd, q.data(), q.size()),
                static_cast<ssize_t>(q.size()));
    }
    const std::string response = read_one_response();
    ASSERT_NE(response.find("200 OK"), std::string::npos) << i;
    ASSERT_NE(response.find("http://ex/a"), std::string::npos) << i;
    ASSERT_NE(response.find("http://ex/c"), std::string::npos) << i;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  close(*fd);
  EXPECT_LT(elapsed, std::chrono::milliseconds(400));
}

TEST_F(ServerProtocolTest, LargeResultSpansSeveralFlushes) {
  StartServer();
  // ~40k rows, well over a megabyte of TSV: the response leaves in many
  // chunks, and the decoded rows must be exactly the in-process answer.
  TripleVec bulk;
  Dictionary* dict = repo_->dictionary();
  const TermId p = dict->Encode("<http://ex/bulk>");
  const TermId o = dict->Encode("<http://ex/o>");
  for (int i = 0; i < 40000; ++i) {
    bulk.push_back(
        {dict->Encode("<http://ex/bulk-subject-number-" + std::to_string(i) +
                      ">"),
         p, o});
  }
  repo_->AddTriples(bulk).status().AbortIfNotOk();
  const std::string query =
      "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:bulk ?y }";

  const HttpResponse response =
      Post("application/sparql-query", query, "text/tab-separated-values");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.Header("transfer-encoding"), "chunked");
  EXPECT_GT(response.body.size(), size_t{4 * 16 * 1024});
  std::vector<std::string> served;
  size_t pos = response.body.find('\n');
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(response.body.substr(0, pos), "?x");
  for (++pos; pos < response.body.size();) {
    const size_t end = response.body.find('\n', pos);
    ASSERT_NE(end, std::string::npos);
    served.push_back(response.body.substr(pos, end - pos));
    pos = end + 1;
  }

  const Result<QueryResult> expected = endpoint_->Select(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::vector<std::string> in_process;
  for (const std::vector<TermId>& row : expected->rows) {
    in_process.push_back(std::string(dict->DecodeUnchecked(row[0])));
  }
  ASSERT_EQ(in_process.size(), 40000u);
  std::sort(served.begin(), served.end());
  std::sort(in_process.begin(), in_process.end());
  EXPECT_EQ(served, in_process);
}

}  // namespace
}  // namespace net
}  // namespace slider
