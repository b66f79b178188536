// Wire protocol: frame roundtrips over a real socketpair, loud rejection of
// every corruption mode a torn or hostile stream can exhibit, and payload
// codec roundtrips (including the embedded encode_results bytes).
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "resilience/budget.hpp"
#include "service/protocol.hpp"
#include "support/error.hpp"

namespace ith {
namespace {

class SocketPair : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    close_a();
    close_b();
  }
  void close_a() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void close_b() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }
  int a() const { return fds_[0]; }
  int b() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST_F(SocketPair, FrameRoundtrip) {
  const std::string payload = "hello frame";
  ASSERT_TRUE(svc::write_frame(a(), svc::MsgType::kEvalAcquire, payload));
  svc::Frame got;
  ASSERT_EQ(svc::read_frame(b(), &got), svc::ReadStatus::kOk);
  EXPECT_EQ(got.type, svc::MsgType::kEvalAcquire);
  EXPECT_EQ(got.payload, payload);
}

TEST_F(SocketPair, EmptyPayloadRoundtrip) {
  ASSERT_TRUE(svc::write_frame(a(), svc::MsgType::kStats, ""));
  svc::Frame got;
  ASSERT_EQ(svc::read_frame(b(), &got), svc::ReadStatus::kOk);
  EXPECT_EQ(got.type, svc::MsgType::kStats);
  EXPECT_TRUE(got.payload.empty());
}

TEST_F(SocketPair, CleanCloseIsClosed) {
  close_a();
  svc::Frame got;
  EXPECT_EQ(svc::read_frame(b(), &got), svc::ReadStatus::kClosed);
}

TEST_F(SocketPair, TornHeaderIsError) {
  // Write half a header, then close: mid-frame EOF must be an error, not a
  // clean close — the peer died inside a frame.
  const char junk[10] = {'I', 'T', 'H', 'S', 'V', 'P', '1', '\0', 1, 0};
  ASSERT_EQ(::send(a(), junk, sizeof junk, 0), static_cast<ssize_t>(sizeof junk));
  close_a();
  svc::Frame got;
  std::string error;
  EXPECT_EQ(svc::read_frame(b(), &got, &error), svc::ReadStatus::kError);
  EXPECT_NE(error.find("torn"), std::string::npos) << error;
}

TEST_F(SocketPair, BadMagicIsError) {
  std::string raw(32, '\0');
  std::memcpy(raw.data(), "NOTMAGIC", 8);
  ASSERT_EQ(::send(a(), raw.data(), raw.size(), 0), static_cast<ssize_t>(raw.size()));
  svc::Frame got;
  std::string error;
  EXPECT_EQ(svc::read_frame(b(), &got, &error), svc::ReadStatus::kError);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST_F(SocketPair, ChecksumMismatchIsError) {
  // A valid frame with one payload bit flipped in transit.
  ASSERT_TRUE(svc::write_frame(a(), svc::MsgType::kEvalResult, "payload-bytes"));
  std::string raw(32 + 13, '\0');
  ASSERT_EQ(::recv(b(), raw.data(), raw.size(), 0), static_cast<ssize_t>(raw.size()));
  raw[34] ^= 0x40;  // inside the payload
  ASSERT_EQ(::send(b(), raw.data(), raw.size(), 0), static_cast<ssize_t>(raw.size()));
  svc::Frame got;
  std::string error;
  EXPECT_EQ(svc::read_frame(a(), &got, &error), svc::ReadStatus::kError);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST_F(SocketPair, OversizedFrameIsError) {
  // A corrupt size field must fail cleanly, never allocate terabytes.
  std::string raw(32, '\0');
  std::memcpy(raw.data(), "ITHSVP2\0", 8);
  const std::uint64_t huge = ~0ull;
  std::memcpy(raw.data() + 16, &huge, sizeof huge);
  ASSERT_EQ(::send(a(), raw.data(), raw.size(), 0), static_cast<ssize_t>(raw.size()));
  svc::Frame got;
  std::string error;
  EXPECT_EQ(svc::read_frame(b(), &got, &error), svc::ReadStatus::kError);
  EXPECT_NE(error.find("size"), std::string::npos) << error;
}

namespace {
void set_recv_timeout_ms(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv), 0);
}
}  // namespace

TEST_F(SocketPair, TimeoutBeforeAnyByteIsRetryableTimeout) {
  // Deadline fires with nothing consumed: the stream is still frame-aligned,
  // so the caller may retry the read on the same fd.
  set_recv_timeout_ms(b(), 50);
  svc::Frame got;
  EXPECT_EQ(svc::read_frame(b(), &got), svc::ReadStatus::kTimeout);

  // Prove the alignment claim: a full frame sent afterwards parses fine.
  ASSERT_TRUE(svc::write_frame(a(), svc::MsgType::kStats, ""));
  EXPECT_EQ(svc::read_frame(b(), &got), svc::ReadStatus::kOk);
  EXPECT_EQ(got.type, svc::MsgType::kStats);
}

TEST_F(SocketPair, TimeoutMidHeaderIsError) {
  // Half a header then silence: part of the stream is consumed when the
  // deadline fires, so the connection is desynchronized — this must be
  // kError (close the connection), never a retry-inviting kTimeout.
  const char junk[10] = {'I', 'T', 'H', 'S', 'V', 'P', '1', '\0', 1, 0};
  ASSERT_EQ(::send(a(), junk, sizeof junk, 0), static_cast<ssize_t>(sizeof junk));
  set_recv_timeout_ms(b(), 50);
  svc::Frame got;
  std::string error;
  EXPECT_EQ(svc::read_frame(b(), &got, &error), svc::ReadStatus::kError);
  EXPECT_NE(error.find("timeout"), std::string::npos) << error;
}

TEST_F(SocketPair, TimeoutMidPayloadIsError) {
  // A complete header promising 8 payload bytes that never arrive: the
  // header is consumed, so even a payload deadline is a desync, not a
  // retryable timeout.
  std::string raw(32, '\0');
  std::memcpy(raw.data(), "ITHSVP2\0", 8);
  const std::uint32_t type = 4;  // kEvalAcquire
  std::memcpy(raw.data() + 8, &type, sizeof type);
  const std::uint64_t size = 8;
  std::memcpy(raw.data() + 16, &size, sizeof size);
  ASSERT_EQ(::send(a(), raw.data(), raw.size(), 0), static_cast<ssize_t>(raw.size()));
  set_recv_timeout_ms(b(), 50);
  svc::Frame got;
  std::string error;
  EXPECT_EQ(svc::read_frame(b(), &got, &error), svc::ReadStatus::kError);
  EXPECT_NE(error.find("timeout"), std::string::npos) << error;
}

TEST(Protocol, HelloRoundtrip) {
  svc::HelloMsg msg;
  msg.fingerprint = 0xfeedfacecafebeefULL;
  msg.client_id = 17;
  msg.name = "client-17";
  const svc::HelloMsg got = svc::decode_hello(svc::encode_hello(msg));
  EXPECT_EQ(got.fingerprint, msg.fingerprint);
  EXPECT_EQ(got.client_id, msg.client_id);
  EXPECT_EQ(got.name, msg.name);
}

TEST(Protocol, ResultsMsgRoundtrip) {
  svc::ResultsMsg msg;
  msg.signature = 0x1234;
  msg.lease_id = 99;
  tuner::BenchmarkResult ok;
  ok.name = "compress";
  ok.running_cycles = 1000;
  ok.total_cycles = 1500;
  ok.compile_cycles = 500;
  ok.attempts = 2;
  msg.results.push_back(ok);
  tuner::BenchmarkResult failed;
  failed.name = "db";
  failed.outcome =
      resilience::EvalOutcome::make_trap(resilience::TrapKind::kInjected, "injected");
  failed.attempts = 0;
  msg.results.push_back(failed);

  const svc::ResultsMsg got = svc::decode_results_msg(svc::encode_results_msg(msg));
  EXPECT_EQ(got.signature, msg.signature);
  EXPECT_EQ(got.lease_id, msg.lease_id);
  ASSERT_EQ(got.results.size(), 2u);
  EXPECT_EQ(got.results[0].name, "compress");
  EXPECT_EQ(got.results[0].running_cycles, 1000u);
  EXPECT_EQ(got.results[0].attempts, 2);
  EXPECT_FALSE(got.results[1].outcome.ok());
  EXPECT_EQ(got.results[1].outcome.detail, "injected");
}

TEST(Protocol, PairAndCountersRoundtrip) {
  const auto [x, y] = svc::decode_u64_pair(svc::encode_u64_pair(7, ~0ull));
  EXPECT_EQ(x, 7u);
  EXPECT_EQ(y, ~0ull);
  const std::vector<std::pair<std::string, std::uint64_t>> counters = {
      {"svc.hits", 12}, {"svc.waits", 0}};
  EXPECT_EQ(svc::decode_counters(svc::encode_counters(counters)), counters);
}

TEST(Protocol, TruncatedPayloadThrows) {
  const std::string whole = svc::encode_u64_pair(1, 2);
  EXPECT_THROW(svc::decode_u64_pair(whole.substr(0, 12)), Error);
  EXPECT_THROW(svc::decode_hello(std::string("\x01", 1)), Error);
}

}  // namespace
}  // namespace ith
