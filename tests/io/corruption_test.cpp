// Corruption harness: deterministic bit-flip, truncation and
// length-field mutation sweeps over real serialized artifacts (v2
// checkpoints, GLF 2 clip sets, GDSII streams). Every mutation must be
// rejected with a CheckError-family diagnostic — never accepted, never
// a crash or a foreign exception type.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/io.hpp"
#include "layout/gdsii.hpp"
#include "layout/glf.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "nn/serialize.hpp"

namespace hsdl {
namespace {

nn::Sequential make_net(std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(4, 3, rng);
  seq.emplace<nn::Linear>(3, 2, rng);
  return seq;
}

std::vector<layout::LabeledClip> sample_clips() {
  std::vector<layout::LabeledClip> clips(2);
  clips[0].clip.window = geom::Rect::from_xywh(0, 0, 1200, 1200);
  clips[0].clip.shapes = {geom::Rect::from_xywh(0, 0, 100, 40),
                          geom::Rect::from_xywh(200, 300, 40, 400)};
  clips[0].label = layout::HotspotLabel::kHotspot;
  clips[1].clip.window = geom::Rect::from_xywh(100, 100, 1200, 1200);
  clips[1].clip.shapes = {geom::Rect::from_xywh(150, 150, 60, 60)};
  clips[1].label = layout::HotspotLabel::kNonHotspot;
  return clips;
}

/// Attempts a checkpoint load; returns true when the loader rejected it
/// via the CheckError taxonomy. Any other exception type (or an
/// accepting load) fails the calling test.
enum class Outcome { kAccepted, kRejected, kForeignException };

Outcome try_load_checkpoint(const std::string& bytes) {
  nn::Sequential net = make_net(99);
  try {
    nn::deserialize_params(bytes, net.params());
    return Outcome::kAccepted;
  } catch (const CheckError&) {
    return Outcome::kRejected;
  } catch (...) {
    return Outcome::kForeignException;
  }
}

Outcome try_load_glf(const std::string& text) {
  try {
    std::istringstream is(text);
    (void)layout::read_glf(is);
    return Outcome::kAccepted;
  } catch (const CheckError&) {
    return Outcome::kRejected;
  } catch (...) {
    return Outcome::kForeignException;
  }
}

Outcome try_load_gds(const std::string& bytes) {
  try {
    std::istringstream is(bytes);
    (void)layout::read_gds(is);
    return Outcome::kAccepted;
  } catch (const CheckError&) {
    return Outcome::kRejected;
  } catch (...) {
    return Outcome::kForeignException;
  }
}

// -- v2 checkpoint -----------------------------------------------------------

TEST(CheckpointCorruptionTest, PristineBufferLoads) {
  nn::Sequential net = make_net(1);
  ASSERT_EQ(try_load_checkpoint(nn::serialize_params(net.params())),
            Outcome::kAccepted);
}

TEST(CheckpointCorruptionTest, EveryBitFlipRejected) {
  nn::Sequential net = make_net(1);
  const std::string good = nn::serialize_params(net.params());
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < good.size(); ++i)
    for (int b = 0; b < 8; ++b) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ (1 << b));
      const Outcome out = try_load_checkpoint(bad);
      EXPECT_EQ(out, Outcome::kRejected)
          << "bit flip at byte " << i << " bit " << b
          << (out == Outcome::kAccepted ? " was accepted"
                                        : " threw a non-CheckError");
      rejected += out == Outcome::kRejected;
    }
  EXPECT_EQ(rejected, good.size() * 8);
}

TEST(CheckpointCorruptionTest, EveryTruncationRejected) {
  nn::Sequential net = make_net(2);
  const std::string good = nn::serialize_params(net.params());
  for (std::size_t len = 0; len < good.size(); ++len)
    EXPECT_EQ(try_load_checkpoint(good.substr(0, len)), Outcome::kRejected)
        << "truncated to " << len << " of " << good.size() << " bytes";
}

TEST(CheckpointCorruptionTest, LengthFieldMutationsRejected) {
  nn::Sequential net = make_net(3);
  const std::string good = nn::serialize_params(net.params());
  // Offset 16: u64 param count (after the 16-byte format header).
  // Offset 24: u32 name length of the first param record.
  const std::uint64_t counts[] = {0, 1, 3, 0xFFFFFFFFFFFFFFFFull};
  for (std::uint64_t v : counts) {
    std::string bad = good;
    for (int i = 0; i < 8; ++i)
      bad[16 + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    EXPECT_EQ(try_load_checkpoint(bad), Outcome::kRejected)
        << "param count mutated to " << v;
  }
  const std::uint32_t name_lens[] = {0, 1, 1000, 0xFFFFFFFFu};
  for (std::uint32_t v : name_lens) {
    std::string bad = good;
    for (int i = 0; i < 4; ++i)
      bad[24 + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    EXPECT_EQ(try_load_checkpoint(bad), Outcome::kRejected)
        << "name length mutated to " << v;
  }
}

TEST(CheckpointCorruptionTest, TrailingBytesRejected) {
  nn::Sequential net = make_net(4);
  const std::string good = nn::serialize_params(net.params());
  EXPECT_EQ(try_load_checkpoint(good + std::string(1, '\0')),
            Outcome::kRejected);
  EXPECT_EQ(try_load_checkpoint(good + good), Outcome::kRejected);
}

TEST(CheckpointCorruptionTest, RejectionsCarryAPosition) {
  nn::Sequential net = make_net(5);
  std::string bad = nn::serialize_params(net.params());
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x10);
  nn::Sequential target = make_net(6);
  try {
    nn::deserialize_params(bad, target.params());
    FAIL() << "corrupt checkpoint accepted";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  } catch (const CheckError&) {
    // Structural mismatches (name/shape vs the model) are CheckErrors
    // without an offset; also a valid rejection.
  }
}

// -- GLF 2 -------------------------------------------------------------------

TEST(GlfCorruptionTest, PristineFileLoads) {
  std::ostringstream os;
  layout::write_glf(os, sample_clips());
  ASSERT_EQ(try_load_glf(os.str()), Outcome::kAccepted);
}

TEST(GlfCorruptionTest, EveryBitFlipRejected) {
  std::ostringstream os;
  layout::write_glf(os, sample_clips());
  const std::string good = os.str();
  for (std::size_t i = 0; i < good.size(); ++i)
    for (int b = 0; b < 8; ++b) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ (1 << b));
      const Outcome out = try_load_glf(bad);
      EXPECT_EQ(out, Outcome::kRejected)
          << "bit flip at byte " << i << " bit " << b
          << (out == Outcome::kAccepted ? " was accepted"
                                        : " threw a non-CheckError");
    }
}

TEST(GlfCorruptionTest, EveryTruncationRejected) {
  std::ostringstream os;
  layout::write_glf(os, sample_clips());
  const std::string good = os.str();
  for (std::size_t len = 0; len < good.size(); ++len)
    EXPECT_EQ(try_load_glf(good.substr(0, len)), Outcome::kRejected)
        << "truncated to " << len << " of " << good.size() << " bytes";
}

TEST(GlfCorruptionTest, HeaderFieldMutationsRejected) {
  std::ostringstream os;
  layout::write_glf(os, sample_clips());
  const std::string good = os.str();
  // Mutate the bytes= and clips= header fields to other plausible
  // numbers (a pure digit edit, not caught by text parsing alone).
  const std::size_t bytes_pos = good.find("bytes=") + 6;
  const std::size_t clips_pos = good.find("clips=") + 6;
  for (const std::size_t pos : {bytes_pos, clips_pos}) {
    std::string bad = good;
    bad[pos] = bad[pos] == '9' ? '8' : static_cast<char>(bad[pos] + 1);
    EXPECT_EQ(try_load_glf(bad), Outcome::kRejected)
        << "header digit at byte " << pos;
  }
}

TEST(GlfCorruptionTest, TrailingBytesRejected) {
  std::ostringstream os;
  layout::write_glf(os, sample_clips());
  // Appending to the body breaks the declared byte count.
  EXPECT_EQ(try_load_glf(os.str() + "RECT 0 0 1 1\n"), Outcome::kRejected);
}

// -- GDSII -------------------------------------------------------------------

/// The first sample clip's shapes as one GDSII cell on layer 1.
std::string sample_gds() {
  const std::vector<layout::LabeledClip> clips = sample_clips();
  layout::GdsCell cell;
  cell.name = "CLIP";
  for (const geom::Rect& r : clips[0].clip.shapes) {
    cell.boundaries.push_back(geom::Polygon::from_rect(r));
    cell.layers.push_back(1);
  }
  layout::GdsLibrary lib;
  lib.cells.push_back(std::move(cell));
  std::ostringstream os;
  layout::write_gds(os, lib);
  return os.str();
}

TEST(GdsCorruptionTest, EveryTruncationRejected) {
  const std::string good = sample_gds();
  ASSERT_EQ(try_load_gds(good), Outcome::kAccepted);
  for (std::size_t len = 0; len < good.size(); ++len)
    EXPECT_EQ(try_load_gds(good.substr(0, len)), Outcome::kRejected)
        << "truncated to " << len << " of " << good.size() << " bytes";
}

TEST(GdsCorruptionTest, RecordLengthBelowHeaderRejected) {
  std::string bad = sample_gds();
  bad[0] = 0;
  bad[1] = 2;  // first record claims 2 bytes, below the 4-byte header
  EXPECT_EQ(try_load_gds(bad), Outcome::kRejected);
}

TEST(GdsCorruptionTest, NonPaddingTrailingDataRejected) {
  const std::string good = sample_gds();
  // NUL tape padding after ENDLIB is legal; anything else is not.
  EXPECT_EQ(try_load_gds(good + std::string(4, '\0')), Outcome::kAccepted);
  EXPECT_EQ(try_load_gds(good + "junk"), Outcome::kRejected);
}

}  // namespace
}  // namespace hsdl
