#include "http/parser.hpp"

#include <gtest/gtest.h>

namespace idr::http {
namespace {

/// Feeds `data` and returns the body bytes that feed reported.
std::string feed_body(ResponseParser& p, std::string_view data) {
  p.feed(data);
  return std::string(p.body_slice());
}

TEST(RequestParser, SimpleGet) {
  RequestParser p;
  const std::string wire =
      "GET /file HTTP/1.1\r\nHost: ebay.com\r\nRange: bytes=0-99\r\n\r\n";
  EXPECT_EQ(p.feed(wire), wire.size());
  ASSERT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(p.request().method, Method::GET);
  EXPECT_EQ(p.request().target, "/file");
  EXPECT_EQ(p.request().headers.get("Range"), "bytes=0-99");
  EXPECT_TRUE(p.request().body.empty());
}

TEST(RequestParser, ByteAtATime) {
  RequestParser p;
  const std::string wire =
      "GET / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
  for (char ch : wire) {
    ASSERT_NE(p.state(), ParseState::Error);
    EXPECT_EQ(p.feed(std::string_view(&ch, 1)), 1u);
  }
  ASSERT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(p.request().body, "abc");
}

TEST(RequestParser, StopsAtMessageBoundary) {
  RequestParser p;
  const std::string two =
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  const std::size_t consumed = p.feed(two);
  EXPECT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(p.request().target, "/a");
  // The second message is untouched and parseable after reset().
  p.reset();
  EXPECT_EQ(p.feed(std::string_view(two).substr(consumed)),
            two.size() - consumed);
  EXPECT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(p.request().target, "/b");
}

TEST(RequestParser, BodyRemainingCountsDown) {
  RequestParser p;
  p.feed("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n");
  EXPECT_EQ(p.state(), ParseState::Body);
  EXPECT_EQ(p.body_remaining(), 10u);
  p.feed("01234");
  EXPECT_EQ(p.body_remaining(), 5u);
  p.feed("56789");
  EXPECT_EQ(p.state(), ParseState::Complete);
}

TEST(RequestParser, MalformedStartLine) {
  for (const char* bad :
       {"GET /\r\n\r\n", "BREW / HTTP/1.1\r\n\r\n",
        "GET / HTTP/2.0\r\n\r\n", "GET  HTTP/1.1 extra\r\n\r\n"}) {
    RequestParser p;
    p.feed(bad);
    EXPECT_EQ(p.state(), ParseState::Error) << bad;
    EXPECT_FALSE(p.error().empty());
  }
}

TEST(RequestParser, MalformedHeaders) {
  for (const char* bad :
       {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        "GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: 12junk\r\n\r\n",
        "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"}) {
    RequestParser p;
    p.feed(bad);
    EXPECT_EQ(p.state(), ParseState::Error) << bad;
  }
}

TEST(RequestParser, HeaderLimitEnforced) {
  RequestParser p;
  std::string huge = "GET / HTTP/1.1\r\n";
  huge.append(70 * 1024, 'x');  // never terminates the header block
  p.feed(huge);
  EXPECT_EQ(p.state(), ParseState::Error);
}

TEST(RequestParser, Http10Accepted) {
  RequestParser p;
  p.feed("GET / HTTP/1.0\r\n\r\n");
  EXPECT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(p.request().version, "HTTP/1.0");
}

TEST(ResponseParser, PartialContent) {
  ResponseParser p;
  const std::string wire =
      "HTTP/1.1 206 Partial Content\r\n"
      "Content-Range: bytes 0-4/10\r\n"
      "Content-Length: 5\r\n\r\n01234";
  EXPECT_EQ(p.feed(wire), wire.size());
  ASSERT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(p.response().status, 206);
  EXPECT_EQ(p.response().reason, "Partial Content");
  EXPECT_EQ(p.body_slice(), "01234");
}

TEST(ResponseParser, BodyIsReportedNotStored) {
  // Response bodies can be gigabytes: the parser frames them and hands
  // each feed's slice to the caller, keeping none of it.
  ResponseParser p;
  std::string seen =
      feed_body(p, "HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\nab");
  seen += feed_body(p, "cdef");
  seen += feed_body(p, "ghEXTRA");
  ASSERT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(seen, "abcdefgh");
  EXPECT_TRUE(p.response().body.empty());
  // A feed past the end of the message reports no body bytes.
  EXPECT_EQ(feed_body(p, "more"), "");
}

TEST(ResponseParser, EmptyReasonAllowed) {
  ResponseParser p;
  p.feed("HTTP/1.1 200 \r\nContent-Length: 0\r\n\r\n");
  ASSERT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(p.response().reason, "");
}

TEST(ResponseParser, ReasonWithSpaces) {
  ResponseParser p;
  p.feed("HTTP/1.1 416 Range Not Satisfiable\r\n\r\n");
  ASSERT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(p.response().reason, "Range Not Satisfiable");
}

TEST(ResponseParser, BadStatusLines) {
  for (const char* bad :
       {"HTTP/1.1\r\n\r\n", "HTTP/1.1 2000 OK\r\n\r\n",
        "HTTP/1.1 20 OK\r\n\r\n", "HTTP/1.1 abc OK\r\n\r\n",
        "SPDY/1 200 OK\r\n\r\n", "HTTP/1.1 099 OK\r\n\r\n"}) {
    ResponseParser p;
    p.feed(bad);
    EXPECT_EQ(p.state(), ParseState::Error) << bad;
  }
}

TEST(ResponseParser, SplitAcrossFeeds) {
  ResponseParser p;
  std::string body = feed_body(p, "HTTP/1.1 200 OK\r\nContent-Le");
  EXPECT_EQ(p.state(), ParseState::Headers);
  body += feed_body(p, "ngth: 6\r\n\r\nfoo");
  EXPECT_EQ(p.state(), ParseState::Body);
  body += feed_body(p, "bar");
  ASSERT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(body, "foobar");
}

TEST(ResponseParser, ResetClearsState) {
  ResponseParser p;
  p.feed("garbage that errors\r\n\r\n");
  EXPECT_EQ(p.state(), ParseState::Error);
  p.reset();
  EXPECT_EQ(p.state(), ParseState::Headers);
  p.feed("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(p.state(), ParseState::Complete);
}

TEST(RoundTrip, SerializeThenParse) {
  Request req;
  req.method = Method::GET;
  req.target = "http://ebay.com/content";
  req.headers.add("Host", "ebay.com");
  req.headers.add("Range", "bytes=102400-");
  RequestParser rp;
  rp.feed(req.serialize());
  ASSERT_EQ(rp.state(), ParseState::Complete);
  EXPECT_EQ(rp.request().target, req.target);
  EXPECT_EQ(rp.request().headers.get("Range"), "bytes=102400-");

  Response resp;
  resp.status = 206;
  resp.reason = std::string(default_reason(206));
  resp.headers.add("Content-Range", "bytes 102400-3999999/4000000");
  resp.body = std::string(1000, 'd');
  ResponseParser sp;
  const std::string wire = resp.serialize();
  EXPECT_EQ(feed_body(sp, wire), resp.body);
  ASSERT_EQ(sp.state(), ParseState::Complete);
  EXPECT_EQ(sp.response().status, 206);
}

// Property: any split point of a valid wire message yields the same parse.
class SplitPointProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SplitPointProperty, ResponseParseIsSplitInvariant) {
  const std::string wire =
      "HTTP/1.1 206 Partial Content\r\n"
      "Content-Range: bytes 0-9/100\r\n"
      "Content-Length: 10\r\n\r\n0123456789";
  const std::size_t cut = std::min(GetParam(), wire.size());
  ResponseParser p;
  std::string body = feed_body(p, std::string_view(wire).substr(0, cut));
  body += feed_body(p, std::string_view(wire).substr(cut));
  ASSERT_EQ(p.state(), ParseState::Complete);
  EXPECT_EQ(body, "0123456789");
  EXPECT_EQ(p.response().headers.get("Content-Range"),
            "bytes 0-9/100");
}

INSTANTIATE_TEST_SUITE_P(Cuts, SplitPointProperty,
                         ::testing::Values(0, 1, 8, 17, 30, 57, 70, 80, 85,
                                           90, 1000));

}  // namespace
}  // namespace idr::http
