// support/codec: FNV-1a reference vectors, the bounds-checked Writer/Reader,
// the file envelope's layout, and the durable tmp+rename publish. Damaged
// envelopes are swept in golden_test.cpp.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "support/codec.hpp"
#include "support/error.hpp"

namespace ith {
namespace {

void expect_error(const auto& fn, const char* needle) {
  try {
    fn();
    FAIL() << "expected Error mentioning \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(Codec, Fnv1aReferenceVectors) {
  EXPECT_EQ(codec::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(codec::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(codec::fnv1a("foobar"), 0x85944171f73967e8ULL);
  // The u64 step hashes the word's little-endian bytes; the seed chains.
  const std::string le("\x08\x07\x06\x05\x04\x03\x02\x01", 8);
  EXPECT_EQ(codec::fnv1a_u64(codec::kFnv1aBasis, 0x0102030405060708ULL), codec::fnv1a(le));
  EXPECT_EQ(codec::fnv1a("bar", codec::fnv1a("foo")), codec::fnv1a("foobar"));
}

TEST(Codec, WriterReaderRoundtrip) {
  codec::Writer w;
  w.u64(~0ULL);
  w.i64(-42);
  w.f64(0.875);
  w.str("name");
  w.str("");
  w.u64(2);
  w.u64(7);
  w.u64(8);
  codec::Reader r(w.bytes(), "widget");
  EXPECT_EQ(r.u64(), ~0ULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 0.875);
  EXPECT_EQ(r.str(), "name");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.count(), 2u);
  EXPECT_FALSE(r.exhausted());
  EXPECT_EQ(r.rest().size(), 16u);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(r.rest().empty());
}

TEST(Codec, ReaderTruncationNamesTheFormat) {
  expect_error([] { codec::Reader(std::string_view("abc"), "widget").u64(); }, "widget truncated");
  // A string length pointing past the end.
  codec::Writer w;
  w.u64(100);
  w.u64(0);
  expect_error([&] { codec::Reader(w.bytes(), "widget").str(); }, "widget truncated");
}

TEST(Codec, CountIsCheckedAgainstRemainingBytes) {
  codec::Writer w;
  w.u64(3);  // three elements promised, two words present
  w.u64(1);
  w.u64(2);
  expect_error([&] { codec::Reader(w.bytes(), "widget").count(); }, "widget truncated");
  codec::Writer huge;
  huge.u64(~0ULL);
  expect_error([&] { codec::Reader(huge.bytes(), "widget").count(); }, "widget truncated");
}

class CodecFile : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "codec_" + info->name() + ".bin";
    std::filesystem::remove_all(path_);
    std::filesystem::remove_all(path_ + ".tmp");
  }
  void TearDown() override {
    std::filesystem::remove_all(path_);
    std::filesystem::remove_all(path_ + ".tmp");
  }
  bool tmp_exists() const { return std::filesystem::exists(path_ + ".tmp"); }
  std::string slurp() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  std::string path_;
};

TEST_F(CodecFile, SealedFileIsMagicSizeChecksumPayload) {
  const codec::FileFormat format{"ITHTST1", "test file"};
  codec::save_sealed(path_, format, "xyz");
  const std::string sealed = slurp();
  ASSERT_EQ(sealed.size(), 8u + 16u + 3u);
  EXPECT_EQ(sealed.substr(0, 8), std::string("ITHTST1\0", 8));
  codec::Reader header(std::string_view(sealed).substr(8, 16), "header");
  EXPECT_EQ(header.u64(), 3u);
  EXPECT_EQ(header.u64(), codec::fnv1a("xyz"));
  EXPECT_EQ(sealed.substr(24), "xyz");
  EXPECT_EQ(codec::load_sealed(path_, format), "xyz");
  expect_error([&] { codec::load_sealed(path_ + ".missing", format); }, "cannot open test file");
}

TEST_F(CodecFile, PublishesAndReplacesWithoutLeavingTmp) {
  codec::atomic_write_file(path_, std::string("first\0bytes", 11));
  EXPECT_EQ(slurp(), std::string("first\0bytes", 11));
  codec::atomic_write_file(path_, "second");
  EXPECT_EQ(slurp(), "second");
  EXPECT_FALSE(tmp_exists());
}

TEST_F(CodecFile, FailedRenameRemovesTmpAndThrows) {
  // A directory squatting on the target makes rename() fail after the tmp
  // file has been written and synced.
  ASSERT_TRUE(std::filesystem::create_directory(path_));
  expect_error([&] { codec::atomic_write_file(path_, "bytes"); }, "cannot rename");
  EXPECT_FALSE(tmp_exists());
  EXPECT_TRUE(std::filesystem::is_directory(path_));
}

TEST_F(CodecFile, UnwritableDirectoryThrows) {
  expect_error([&] { codec::atomic_write_file(path_ + "/missing/file.bin", "bytes"); },
               "cannot open");
}

}  // namespace
}  // namespace ith
