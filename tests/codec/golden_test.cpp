// Byte formats pinned against golden data, and one integrity suite for all
// of them.
//
// golden/sample.evc (ITHEVC3) and golden/sample.gacp are samples.hpp's
// records as the encoders write them (the checkpoint's bytes predate
// support/codec); the ITHSVP2 frames below are pinned the same way.
// Loading a golden file must give back the sample, and saving the sample
// must reproduce the file byte for byte. golden/sample.v1.evc and
// golden/sample.v2.evc are earlier samples as the retired ITHEVC1 and
// ITHEVC2 formats wrote them, which must now be refused as bad magic.
//
// The Envelope suite feeds every truncation prefix and every single-byte
// flip of the golden files, and of encoded frames, to the real loaders and
// decoders: each must end in ith::Error (or a kError frame read) naming the
// failure, never a crash, a bad_alloc or a silent success.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "codec/samples.hpp"
#include "resilience/checkpoint.hpp"
#include "service/protocol.hpp"
#include "support/codec.hpp"
#include "support/error.hpp"
#include "tuner/eval_cache.hpp"

namespace ith {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

const std::string kGoldenEvc = slurp(ITH_GOLDEN_DIR "/sample.evc");
const std::string kGoldenEvcV1 = slurp(ITH_GOLDEN_DIR "/sample.v1.evc");
const std::string kGoldenEvcV2 = slurp(ITH_GOLDEN_DIR "/sample.v2.evc");
const std::string kGoldenGacp = slurp(ITH_GOLDEN_DIR "/sample.gacp");

// ITHSVP2 frames: 32-byte header (magic, type, reserved, size, checksum),
// then the payload.
const std::string kHelloFrame(
    "\x49\x54\x48\x53\x56\x50\x32\x00\x01\x00\x00\x00\x00\x00\x00\x00"
    "\x21\x00\x00\x00\x00\x00\x00\x00\xdb\x70\x57\xa0\x89\xde\xcc\xd3"
    "\xef\xbe\xfe\xca\xce\xfa\xed\xfe\x11\x00\x00\x00\x00\x00\x00\x00"
    "\x09\x00\x00\x00\x00\x00\x00\x00\x63\x6c\x69\x65\x6e\x74\x2d\x31"
    "\x37",
    65);
const std::string kPublishFrame(
    "\x49\x54\x48\x53\x56\x50\x32\x00\x07\x00\x00\x00\x00\x00\x00\x00"
    "\xcd\x00\x00\x00\x00\x00\x00\x00\x7d\xf2\x9d\xe7\xb9\x2e\x49\x44"
    "\x34\x12\x00\x00\x00\x00\x00\x00\x63\x00\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"
    "\x03\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
    "\x02\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x03\x00\x00\x00"
    "\x0c\x00\x00\x00\x03\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00"
    "\x00\x00\x00\x64\x62\xe8\x03\x00\x00\x00\x00\x00\x00\xdc\x05\x00"
    "\x00\x00\x00\x00\x00\xf4\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00"
    "\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00",
    237);
constexpr std::size_t kFrameHeader = 32;

svc::HelloMsg sample_hello() {
  svc::HelloMsg m;
  m.fingerprint = 0xfeedfacecafebeefULL;
  m.client_id = 17;
  m.name = "client-17";
  return m;
}

svc::ResultsMsg sample_publish() {
  svc::ResultsMsg m;
  m.signature = 0x1234;
  m.lease_id = 99;
  tuner::BenchmarkResult ok;
  ok.name = "db";
  ok.running_cycles = 1000;
  ok.total_cycles = 1500;
  ok.compile_cycles = 500;
  ok.attempts = 2;
  ok.trace = sample_trace();
  m.results.push_back(ok);
  return m;
}

/// Writes `bytes` into one end of a fresh socketpair, closes it, and reads
/// a frame from the other end.
svc::ReadStatus read_frame_from(const std::string& bytes, svc::Frame* frame,
                                std::string* error) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_EQ(::send(fds[0], bytes.data(), bytes.size(), 0), static_cast<ssize_t>(bytes.size()));
  ::close(fds[0]);
  const svc::ReadStatus status = svc::read_frame(fds[1], frame, error);
  ::close(fds[1]);
  return status;
}

std::string written_frame(svc::MsgType type, const std::string& payload) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_TRUE(svc::write_frame(fds[0], type, payload));
  ::close(fds[0]);
  std::string raw(kFrameHeader + payload.size() + 1, '\0');
  const ssize_t n = ::recv(fds[1], raw.data(), raw.size(), MSG_WAITALL);
  ::close(fds[1]);
  raw.resize(n < 0 ? 0 : static_cast<std::size_t>(n));
  return raw;
}

class GoldenFile : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "golden_" + info->name() + ".bin";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(GoldenFile, EvalCacheLoadsToSampleAndResavesIdentically) {
  ASSERT_FALSE(kGoldenEvc.empty());
  dump(path_, kGoldenEvc);
  const tuner::EvalCacheSnapshot got = tuner::load_eval_cache(path_);
  const tuner::EvalCacheSnapshot want = sample_snapshot();
  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.quarantined, want.quarantined);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < want.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].signature, want.entries[i].signature);
    EXPECT_EQ(tuner::encode_results(got.entries[i].results),
              tuner::encode_results(want.entries[i].results));
  }
  EXPECT_EQ(got.entries[1].results[0].outcome.detail, "quarantined");
  ASSERT_EQ(got.params.size(), want.params.size());
  for (std::size_t i = 0; i < want.params.size(); ++i) {
    EXPECT_EQ(got.params[i].params, want.params[i].params);
    EXPECT_EQ(got.params[i].keys, want.params[i].keys);
  }

  tuner::save_eval_cache(path_, want);
  EXPECT_EQ(slurp(path_), kGoldenEvc);
  tuner::save_eval_cache(path_, got);
  EXPECT_EQ(slurp(path_), kGoldenEvc);
}

TEST_F(GoldenFile, CheckpointLoadsToSampleAndResavesIdentically) {
  ASSERT_FALSE(kGoldenGacp.empty());
  dump(path_, kGoldenGacp);
  const resilience::GaCheckpoint got = resilience::load_checkpoint(path_);
  const resilience::GaCheckpoint want = sample_checkpoint();
  EXPECT_EQ(got.fingerprint, want.fingerprint);
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.rng_state, want.rng_state);
  EXPECT_EQ(got.rng_inc, want.rng_inc);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.best_ever, want.best_ever);
  EXPECT_EQ(got.best_genome, want.best_genome);
  EXPECT_EQ(got.stale, want.stale);
  EXPECT_EQ(got.population, want.population);
  EXPECT_EQ(got.fitness, want.fitness);
  EXPECT_EQ(got.cache, want.cache);
  EXPECT_EQ(got.quarantine, want.quarantine);
  ASSERT_EQ(got.history.size(), 1u);
  EXPECT_EQ(got.history[0].worst, want.history[0].worst);
  EXPECT_EQ(got.history[0].diversity, want.history[0].diversity);

  resilience::save_checkpoint(path_, want);
  EXPECT_EQ(slurp(path_), kGoldenGacp);
  resilience::save_checkpoint(path_, got);
  EXPECT_EQ(slurp(path_), kGoldenGacp);
}

TEST_F(GoldenFile, EachLoaderRejectsTheOtherFormatAsBadMagic) {
  dump(path_, kGoldenGacp);
  try {
    tuner::load_eval_cache(path_);
    FAIL() << "a checkpoint loaded as an evaluation cache";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
  }
  dump(path_, kGoldenEvc);
  try {
    resilience::load_checkpoint(path_);
    FAIL() << "an evaluation cache loaded as a checkpoint";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
  }
}

TEST(GoldenFrame, HelloEncodesToPinnedBytes) {
  EXPECT_EQ(written_frame(svc::MsgType::kHello, svc::encode_hello(sample_hello())), kHelloFrame);
  svc::Frame frame;
  ASSERT_EQ(read_frame_from(kHelloFrame, &frame, nullptr), svc::ReadStatus::kOk);
  EXPECT_EQ(frame.type, svc::MsgType::kHello);
  const svc::HelloMsg got = svc::decode_hello(frame.payload);
  EXPECT_EQ(got.fingerprint, sample_hello().fingerprint);
  EXPECT_EQ(got.client_id, sample_hello().client_id);
  EXPECT_EQ(got.name, sample_hello().name);
}

TEST(GoldenFrame, ResultsMessageEncodesToPinnedBytes) {
  EXPECT_EQ(written_frame(svc::MsgType::kEvalPublish, svc::encode_results_msg(sample_publish())),
            kPublishFrame);
  svc::Frame frame;
  ASSERT_EQ(read_frame_from(kPublishFrame, &frame, nullptr), svc::ReadStatus::kOk);
  EXPECT_EQ(frame.type, svc::MsgType::kEvalPublish);
  const svc::ResultsMsg got = svc::decode_results_msg(frame.payload);
  EXPECT_EQ(got.signature, sample_publish().signature);
  EXPECT_EQ(got.lease_id, sample_publish().lease_id);
  EXPECT_EQ(tuner::encode_results(got.results), tuner::encode_results(sample_publish().results));
}

// ---------------------------------------------------------------------------
// Envelope: one integrity suite for the two file formats and the frames.

using Loader = std::function<void(const std::string&)>;

struct SealedFormat {
  const char* name;
  const std::string* golden;
  Loader load;
};

const SealedFormat kFileFormats[] = {
    {"ITHEVC3", &kGoldenEvc, [](const std::string& p) { tuner::load_eval_cache(p); }},
    {"ITHGACP1", &kGoldenGacp, [](const std::string& p) { resilience::load_checkpoint(p); }},
};

/// The diagnostic a damaged file must produce, by the byte that was
/// damaged: the magic, the size field, or the checksummed payload.
const char* expected_flip_error(std::size_t offset) {
  if (offset < 8) return "bad magic";
  if (offset < 16) return nullptr;  // size: truncated or trailing, by direction
  return "checksum mismatch";
}

class Envelope : public GoldenFile {
 protected:
  /// Loads `bytes` through `format`; returns the Error text, or "" when
  /// the load succeeded (a test failure for every caller).
  std::string load_error(const SealedFormat& format, const std::string& bytes) const {
    dump(path_, bytes);
    try {
      format.load(path_);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  }
};

TEST_F(Envelope, EveryTruncationOfAGoldenFileIsAnError) {
  for (const SealedFormat& format : kFileFormats) {
    ASSERT_GT(format.golden->size(), 24u) << format.name;
    for (std::size_t len = 0; len < format.golden->size(); ++len) {
      const std::string error = load_error(format, format.golden->substr(0, len));
      const char* needle = len < 8 ? "bad magic" : "truncated";
      EXPECT_NE(error.find(needle), std::string::npos)
          << format.name << " prefix " << len << ": \"" << error << '"';
    }
  }
}

TEST_F(Envelope, EverySingleByteFlipOfAGoldenFileIsAnError) {
  for (const SealedFormat& format : kFileFormats) {
    for (std::size_t i = 0; i < format.golden->size(); ++i) {
      for (const int mask : {0x01, 0x80, 0xff}) {
        std::string bytes = *format.golden;
        bytes[i] = static_cast<char>(static_cast<unsigned char>(bytes[i]) ^ mask);
        const std::string error = load_error(format, bytes);
        EXPECT_FALSE(error.empty()) << format.name << " byte " << i << " ^ " << mask;
        const char* needle = expected_flip_error(i);
        if (needle == nullptr) {
          EXPECT_TRUE(error.find("truncated") != std::string::npos ||
                      error.find("trailing") != std::string::npos)
              << format.name << " byte " << i << ": \"" << error << '"';
        } else {
          EXPECT_NE(error.find(needle), std::string::npos)
              << format.name << " byte " << i << ": \"" << error << '"';
        }
      }
    }
  }
}

TEST_F(Envelope, TrailingBytesAreAnError) {
  for (const SealedFormat& format : kFileFormats) {
    for (const std::string& extra : {std::string(1, '\0'), std::string("extra")}) {
      const std::string error = load_error(format, *format.golden + extra);
      EXPECT_NE(error.find("trailing"), std::string::npos) << format.name << ": " << error;
    }
  }
}

TEST_F(Envelope, MissingFileIsAnError) {
  for (const SealedFormat& format : kFileFormats) {
    try {
      format.load(path_);  // SetUp removed it
      ADD_FAILURE() << format.name << " loaded a missing file";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos)
          << format.name << ": " << e.what();
    }
  }
}

TEST_F(Envelope, ForeignBytesAreBadMagic) {
  for (const SealedFormat& format : kFileFormats) {
    const std::string error =
        load_error(format, "this is a perfectly ordinary text file, not a sealed file at all");
    EXPECT_NE(error.find("bad magic"), std::string::npos) << format.name << ": " << error;
  }
}

TEST_F(Envelope, RetiredEvalCacheVersionIsBadMagic) {
  // ITHEVC1 and ITHEVC2 files are whole and checksummed, but their formats
  // are retired: a tool handed one reports bad magic and starts cold.
  ASSERT_EQ(kGoldenEvcV1.substr(0, 8), std::string("ITHEVC1\0", 8));
  ASSERT_EQ(kGoldenEvcV2.substr(0, 8), std::string("ITHEVC2\0", 8));
  for (const std::string* retired : {&kGoldenEvcV1, &kGoldenEvcV2}) {
    const std::string error = load_error(kFileFormats[0], *retired);
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  }
}

struct PinnedFrame {
  const char* name;
  const std::string* bytes;
  std::function<void(const std::string&)> decode;
};

const PinnedFrame kFrames[] = {
    {"hello", &kHelloFrame, [](const std::string& p) { svc::decode_hello(p); }},
    {"publish", &kPublishFrame, [](const std::string& p) { svc::decode_results_msg(p); }},
};

TEST(EnvelopeFrame, EveryTruncatedFrameIsAReadError) {
  for (const PinnedFrame& frame : kFrames) {
    for (std::size_t len = 1; len < frame.bytes->size(); ++len) {
      svc::Frame got;
      std::string error;
      EXPECT_EQ(read_frame_from(frame.bytes->substr(0, len), &got, &error),
                svc::ReadStatus::kError)
          << frame.name << " prefix " << len;
      EXPECT_NE(error.find("torn"), std::string::npos) << frame.name << " prefix " << len;
    }
  }
}

TEST(EnvelopeFrame, EverySingleByteFlipOfAPayloadIsAReadError) {
  for (const PinnedFrame& frame : kFrames) {
    for (std::size_t i = kFrameHeader; i < frame.bytes->size(); ++i) {
      std::string bytes = *frame.bytes;
      bytes[i] = static_cast<char>(bytes[i] ^ 0x01);
      svc::Frame got;
      std::string error;
      EXPECT_EQ(read_frame_from(bytes, &got, &error), svc::ReadStatus::kError)
          << frame.name << " byte " << i;
      EXPECT_NE(error.find("checksum"), std::string::npos) << frame.name << " byte " << i;
    }
  }
}

TEST(EnvelopeFrame, EveryTruncatedPayloadFailsToDecode) {
  for (const PinnedFrame& frame : kFrames) {
    const std::string payload = frame.bytes->substr(kFrameHeader);
    for (std::size_t len = 0; len < payload.size(); ++len) {
      try {
        frame.decode(payload.substr(0, len));
        ADD_FAILURE() << frame.name << " payload prefix " << len << " decoded";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
            << frame.name << " payload prefix " << len << ": " << e.what();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile words: what a checksum cannot catch. Every byte offset of the
// ITHEVC3 and ITHGACP1 golden payloads and of the pinned ITHSVP2 payloads
// is overwritten with each of thirteen hostile 8-byte words (cut short at
// the end), and the result is re-sealed, so it passes the envelope. Each
// must either throw ith::Error or load into a value that re-encodes to the
// same bytes: nothing the decoder accepts may be a silent default or a
// narrowing.

const std::uint64_t kHostileWords[] = {
    0,
    1,
    2,
    0x7fffffffULL,
    0x80000000ULL,
    0xffffffffULL,
    std::uint64_t{1} << 32,
    std::uint64_t{1} << 40,
    std::uint64_t{1} << 63,
    ~std::uint64_t{0},
    0x7ff8000000000000ULL,  // NaN
    0x7ff0000000000000ULL,  // +inf
    0xfff0000000000000ULL,  // -inf
};

/// Calls `check` with every hostile variant of `payload`.
void for_each_hostile_variant(const std::string& payload,
                              const std::function<void(const std::string&)>& check) {
  for (std::size_t offset = 0; offset < payload.size(); ++offset) {
    for (const std::uint64_t word : kHostileWords) {
      std::string bad = payload;
      const std::size_t n = std::min(sizeof word, bad.size() - offset);
      std::memcpy(bad.data() + offset, &word, n);
      if (bad != payload) check(bad);
    }
  }
}

/// Writes every hostile variant of `golden`'s payload to `path`, sealed by
/// hand (magic, size, checksum) as save_sealed would but without its fsync:
/// there are thousands of these. `load` reads `path`, and `resave` writes
/// what it loaded to the path it is given. Each variant must throw
/// ith::Error or resave to the same bytes. Returns how many loaded.
template <typename Load, typename Resave>
std::size_t sweep_hostile_file(const std::string& golden, const std::string& path, Load load,
                               Resave resave) {
  const std::string payload = golden.substr(24);  // past magic, size, checksum
  const std::string resaved = path + ".resaved";
  std::size_t loaded = 0;
  for_each_hostile_variant(payload, [&](const std::string& bad) {
    std::string sealed = golden.substr(0, 8);
    for (const std::uint64_t word : {std::uint64_t{bad.size()}, codec::fnv1a(bad)}) {
      sealed.append(reinterpret_cast<const char*>(&word), sizeof word);
    }
    dump(path, sealed + bad);
    decltype(load(path)) value;
    try {
      value = load(path);
    } catch (const Error&) {
      return;
    }
    ++loaded;
    resave(resaved, value);
    EXPECT_EQ(slurp(resaved), slurp(path)) << "a damaged payload loaded as another value";
  });
  std::remove(resaved.c_str());
  return loaded;
}

TEST_F(GoldenFile, HostileWordsInTheEvalCacheThrowOrRoundTrip) {
  const std::size_t loaded =
      sweep_hostile_file(kGoldenEvc, path_, tuner::load_eval_cache, tuner::save_eval_cache);
  EXPECT_GT(loaded, 0u);  // the fingerprint and quarantine words take any value
}

TEST_F(GoldenFile, HostileWordsInTheCheckpointThrowOrRoundTrip) {
  const std::size_t loaded = sweep_hostile_file(kGoldenGacp, path_, resilience::load_checkpoint,
                                                resilience::save_checkpoint);
  EXPECT_GT(loaded, 0u);  // the fingerprint and RNG words take any value
}

TEST(GoldenFrame, HostileWordsInAFramePayloadThrowOrRoundTrip) {
  const struct {
    const char* name;
    const std::string* frame;
    std::function<std::string(const std::string&)> reencode;
  } frames[] = {
      {"hello", &kHelloFrame,
       [](const std::string& p) { return svc::encode_hello(svc::decode_hello(p)); }},
      {"publish", &kPublishFrame,
       [](const std::string& p) { return svc::encode_results_msg(svc::decode_results_msg(p)); }},
  };
  for (const auto& f : frames) {
    for_each_hostile_variant(f.frame->substr(kFrameHeader), [&](const std::string& bad) {
      std::string again;
      try {
        again = f.reencode(bad);
      } catch (const Error&) {
        return;
      }
      EXPECT_EQ(again, bad) << f.name << ": a damaged payload decoded as another value";
    });
  }
}

}  // namespace
}  // namespace ith
