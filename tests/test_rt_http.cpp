// Loopback integration tests: real origin server + real client.
#include <gtest/gtest.h>

#include <optional>

#include "rt/http_client.hpp"
#include "rt/http_server.hpp"

namespace idr::rt {
namespace {

void spin_until(Reactor& reactor, double deadline_s,
                const std::function<bool()>& done) {
  const double deadline = reactor.now() + deadline_s;
  while (!done() && reactor.now() < deadline) {
    reactor.poll(0.02);
  }
  ASSERT_TRUE(done()) << "condition not reached within deadline";
}

struct Fixture {
  Reactor reactor;
  HttpOriginServer server{reactor, 0};

  Fixture() { server.add_resource("/blob", 300000); }

  FetchResult fetch_sync(FetchRequest req, double deadline = 10.0) {
    std::optional<FetchResult> result;
    req.origin.port = req.origin.port ? req.origin.port : server.port();
    fetch(reactor, req, [&](const FetchResult& r) { result = r; });
    spin_until(reactor, deadline, [&] { return result.has_value(); });
    return *result;
  }
};

TEST(RtHttp, FullDownloadVerified) {
  Fixture fx;
  FetchRequest req;
  req.path = "/blob";
  const FetchResult result = fx.fetch_sync(req);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body_bytes, 300000u);
  EXPECT_TRUE(result.body_verified);
  EXPECT_GT(result.elapsed(), 0.0);
  EXPECT_GE(result.first_byte_time, result.start_time);
  EXPECT_EQ(fx.server.requests_served(), 1u);
}

TEST(RtHttp, LargeBodyIsVerifiedWithoutBeingKept) {
  Fixture fx;
  constexpr std::uint64_t kSize = 8u << 20;  // 8 MiB
  fx.server.add_resource("/big", kSize);
  FetchRequest req;
  req.path = "/big";
  const FetchResult result = fx.fetch_sync(req, 30.0);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.body_bytes, kSize);
  EXPECT_TRUE(result.body_verified);
  EXPECT_TRUE(result.body.empty());  // capture_body is off by default

  // Captured, the same body is kept byte for byte.
  req.capture_body = true;
  req.range = http::range_first_bytes(100000);
  const FetchResult captured = fx.fetch_sync(req, 30.0);
  ASSERT_TRUE(captured.ok) << captured.error;
  ASSERT_EQ(captured.body.size(), 100000u);
  for (std::size_t i = 0; i < captured.body.size(); ++i) {
    ASSERT_EQ(captured.body[i], resource_byte(i)) << "offset " << i;
  }
}

TEST(RtHttp, RangeRequestReturns206WithCorrectSlice) {
  Fixture fx;
  FetchRequest req;
  req.path = "/blob";
  req.range = http::range_first_bytes(100000);
  FetchResult result = fx.fetch_sync(req);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.status, 206);
  EXPECT_EQ(result.body_bytes, 100000u);
  EXPECT_TRUE(result.body_verified);

  req.range = http::range_from_offset(100000);
  result = fx.fetch_sync(req);
  EXPECT_EQ(result.status, 206);
  EXPECT_EQ(result.body_bytes, 200000u);
  // Verified against the correct absolute offsets (Content-Range).
  EXPECT_TRUE(result.body_verified);
}

TEST(RtHttp, UnsatisfiableRangeIs416) {
  Fixture fx;
  FetchRequest req;
  req.path = "/blob";
  req.range = http::range_from_offset(300000);
  const FetchResult result = fx.fetch_sync(req);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.status, 416);
}

TEST(RtHttp, MissingResourceIs404) {
  Fixture fx;
  FetchRequest req;
  req.path = "/nope";
  const FetchResult result = fx.fetch_sync(req);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.status, 404);
}

TEST(RtHttp, ConnectToClosedPortFails) {
  Fixture fx;
  FetchRequest req;
  req.path = "/blob";
  req.origin.port = 1;  // privileged, surely closed
  req.timeout_s = 5.0;
  const FetchResult result = fx.fetch_sync(req);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(RtHttp, ThrottleShapesThroughput) {
  Fixture fx;
  fx.server.set_shaping_policy(
      [](const http::Request&) { return 200000.0; });  // 200 KB/s
  FetchRequest req;
  req.path = "/blob";  // 300 KB -> ~1.5 s
  const FetchResult result = fx.fetch_sync(req, 20.0);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.elapsed(), 0.9);
  EXPECT_LT(result.elapsed(), 5.0);
  EXPECT_TRUE(result.body_verified);
}

TEST(RtHttp, ShapingPolicySeesHeaders) {
  Fixture fx;
  // Unthrottled unless the request lacks a Via header; we send direct
  // (no Via), so the 50 KB/s policy applies to a 100 KB range.
  fx.server.set_shaping_policy([](const http::Request& r) {
    return r.headers.has("Via") ? 0.0 : 50000.0;
  });
  FetchRequest req;
  req.path = "/blob";
  req.range = http::range_first_bytes(100000);
  const FetchResult result = fx.fetch_sync(req, 20.0);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.elapsed(), 1.2);
}

TEST(RtHttp, SequentialRequestsOnFreshConnections) {
  Fixture fx;
  for (int i = 0; i < 5; ++i) {
    FetchRequest req;
    req.path = "/blob";
    req.range = http::range_first_bytes(1000);
    const FetchResult result = fx.fetch_sync(req);
    ASSERT_TRUE(result.ok) << result.error;
  }
  EXPECT_EQ(fx.server.requests_served(), 5u);
}

TEST(RtHttp, ConcurrentFetchesAllComplete) {
  Fixture fx;
  int done = 0;
  bool all_ok = true;
  for (int i = 0; i < 8; ++i) {
    FetchRequest req;
    req.origin.port = fx.server.port();
    req.path = "/blob";
    req.range = http::range_first_bytes(50000);
    fetch(fx.reactor, req, [&](const FetchResult& r) {
      ++done;
      all_ok = all_ok && r.ok && r.body_verified;
    });
  }
  spin_until(fx.reactor, 10.0, [&] { return done == 8; });
  EXPECT_TRUE(all_ok);
}

TEST(RtHttp, CancelSuppressesCallback) {
  Fixture fx;
  fx.server.set_shaping_policy(
      [](const http::Request&) { return 50000.0; });  // slow it down
  bool fired = false;
  FetchRequest req;
  req.origin.port = fx.server.port();
  req.path = "/blob";
  FetchHandle handle =
      fetch(fx.reactor, req, [&](const FetchResult&) { fired = true; });
  // Let it start, then cancel mid-body.
  bool waited = false;
  fx.reactor.add_timer(0.2, [&] {
    handle.cancel();
    waited = true;
  });
  spin_until(fx.reactor, 5.0, [&] { return waited; });
  bool sentinel = false;
  fx.reactor.add_timer(0.3, [&] { sentinel = true; });
  spin_until(fx.reactor, 5.0, [&] { return sentinel; });
  EXPECT_FALSE(fired);
  EXPECT_FALSE(handle.active());
}

}  // namespace
}  // namespace idr::rt
