// OutputStore persistence: byte-level round-trip through Save/Load,
// warm-start Preload semantics (zero invocations, zero counter pollution),
// Status-returning rejection of mismatched, truncated and corrupted files,
// crash-atomicity of Save under injected I/O faults, per-column salvage of
// partially corrupt files, rejection of unknown format versions, and the
// Scrub/RepairStore self-healing loop — loading never crashes and never
// serves an unverified count, whatever the bytes.

#include "query/output_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "detect/models.h"
#include "query/output_source.h"
#include "util/env.h"
#include "util/metrics.h"
#include "video/presets.h"

namespace smokescreen {
namespace query {
namespace {

using util::FaultEnv;
using util::FaultEnvProfile;
using video::ObjectClass;
using video::ScenePreset;

// Fixed-layout byte offsets (see output_store.h).
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8 + 8 + 4 + 4;
constexpr size_t kColumnMetaSize = 4 + 4 + 8 + 8 + 4 + 4 + 4;

size_t ColumnFramesOffset(size_t column_start) { return column_start + kColumnMetaSize; }

class OutputStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ds = video::MakePresetScaled(ScenePreset::kUaDetrac, 300);
    ds.status().CheckOk();
    dataset_ = std::make_unique<video::VideoDataset>(std::move(ds).ValueOrDie());
    // Unique per test: ctest -j runs tests of this binary as separate
    // processes, and a shared fixed path races their Save/corrupt/TearDown.
    const testing::TestInfo* info =
        testing::UnitTest::GetInstance()->current_test_info();
    path_ = testing::TempDir() + "/output_store_test_" + info->name() + ".smkc";
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::vector<char> ReadBytes() {
    std::ifstream in(path_, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  void WriteBytes(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  detect::SimYoloV4 yolo_;
  std::unique_ptr<video::VideoDataset> dataset_;
  std::string path_;
};

OutputStore MakeSampleStore() {
  OutputStore store(/*dataset_id=*/0xD5, /*model_id=*/0x7E, /*num_frames=*/300);
  OutputColumnRecord lowres;
  lowres.resolution = 320;
  lowres.cls = static_cast<int>(ObjectClass::kCar);
  lowres.contrast_q = 4096;  // contrast 1.0
  lowres.frames = {0, 3, 17, 299};
  lowres.counts = {2, 0, 5, 11};
  store.AddColumn(std::move(lowres));
  OutputColumnRecord dim;
  dim.resolution = 608;
  dim.cls = static_cast<int>(ObjectClass::kCar);
  dim.contrast_q = 2048;  // contrast 0.5
  dim.frames = {8, 9};
  dim.counts = {1, 4};
  store.AddColumn(std::move(dim));
  return store;
}

// Byte offsets of the two sample-store columns.
constexpr size_t kSampleCol1 = kHeaderSize;                              // 4 entries
constexpr size_t kSampleCol2 = kSampleCol1 + kColumnMetaSize + 4 * 12;   // 2 entries

TEST_F(OutputStoreTest, SaveLoadRoundTripPreservesEverything) {
  OutputStore store = MakeSampleStore();
  ASSERT_TRUE(store.Save(path_).ok());

  auto loaded = OutputStore::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dataset_id(), store.dataset_id());
  EXPECT_EQ(loaded->model_id(), store.model_id());
  EXPECT_EQ(loaded->num_frames(), store.num_frames());
  EXPECT_EQ(loaded->TotalEntries(), store.TotalEntries());
  ASSERT_EQ(loaded->columns().size(), store.columns().size());
  for (size_t i = 0; i < store.columns().size(); ++i) {
    const OutputColumnRecord& want = store.columns()[i];
    const OutputColumnRecord& got = loaded->columns()[i];
    EXPECT_EQ(got.resolution, want.resolution);
    EXPECT_EQ(got.cls, want.cls);
    EXPECT_EQ(got.contrast_q, want.contrast_q);
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.counts, want.counts);
  }
}

TEST_F(OutputStoreTest, EmptyStoreRoundTrips) {
  OutputStore store(1, 2, 300);
  ASSERT_TRUE(store.Save(path_).ok());
  auto loaded = OutputStore::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalEntries(), 0);
  EXPECT_TRUE(loaded->columns().empty());
}

TEST_F(OutputStoreTest, SaveLeavesNoTmpFile) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  EXPECT_TRUE(util::Env::Default().FileExists(path_));
  EXPECT_FALSE(util::Env::Default().FileExists(path_ + ".tmp"));
}

TEST_F(OutputStoreTest, MissingFileIsAnError) {
  auto loaded = OutputStore::Load(path_ + ".does-not-exist");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
}

TEST_F(OutputStoreTest, BadMagicIsRejectedAsInvalidArgument) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[0] ^= 0x5A;  // Clobber the magic.
  WriteBytes(bytes);
  auto loaded = OutputStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(OutputStoreTest, TruncatedHeaderIsDataLoss) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes.resize(10);  // Mid-header.
  WriteBytes(bytes);
  auto loaded = OutputStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
  // Nothing below a bad header can be attributed: Salvage refuses too.
  EXPECT_EQ(OutputStore::Salvage(path_).status().code(), util::StatusCode::kDataLoss);
}

TEST_F(OutputStoreTest, TruncatedPayloadIsDataLossOnStrictLoad) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes.resize(bytes.size() - 3);  // Chop the tail of the last counts array.
  WriteBytes(bytes);
  auto loaded = OutputStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
}

TEST_F(OutputStoreTest, FlippedPayloadByteFailsCrcOnStrictLoad) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[bytes.size() - 1] ^= 0x01;  // Corrupt the last count in place.
  WriteBytes(bytes);
  auto loaded = OutputStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss);
}

// --- Crash atomicity under injected faults ---------------------------------

TEST_F(OutputStoreTest, TornWriteCrashLeavesPreviousStoreIntact) {
  OutputStore original = MakeSampleStore();
  ASSERT_TRUE(original.Save(path_).ok());

  // Every write tears: the new save must fail WITHOUT touching `path_`.
  FaultEnvProfile profile;
  profile.write_fail_prob = 1.0;
  profile.seed = 7;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());

  OutputStore replacement(original.dataset_id(), original.model_id(), original.num_frames());
  EXPECT_FALSE(replacement.Save(*env, path_).ok());
  EXPECT_GT(env->torn_writes(), 0);
  EXPECT_FALSE(util::Env::Default().FileExists(path_ + ".tmp"));  // Cleaned up.

  auto loaded = OutputStore::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalEntries(), original.TotalEntries());
}

TEST_F(OutputStoreTest, FailedRenameLeavesPreviousStoreIntact) {
  OutputStore original = MakeSampleStore();
  ASSERT_TRUE(original.Save(path_).ok());

  FaultEnvProfile profile;
  profile.rename_fail_prob = 1.0;
  profile.seed = 7;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());

  OutputStore replacement(original.dataset_id(), original.model_id(), original.num_frames());
  EXPECT_FALSE(replacement.Save(*env, path_).ok());
  EXPECT_EQ(env->rename_failures(), 1);

  auto loaded = OutputStore::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalEntries(), original.TotalEntries());
}

TEST_F(OutputStoreTest, SilentWriteCorruptionIsCaughtByReadback) {
  OutputStore original = MakeSampleStore();
  ASSERT_TRUE(original.Save(path_).ok());

  // The write flips one bit but REPORTS SUCCESS — only the readback
  // verification inside Save can catch it before the rename commits.
  FaultEnvProfile profile;
  profile.write_flip_prob = 1.0;
  profile.seed = 7;
  auto env = FaultEnv::Create(profile);
  ASSERT_TRUE(env.ok());

  OutputStore replacement(original.dataset_id(), original.model_id(), original.num_frames());
  auto status = replacement.Save(*env, path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kDataLoss);
  EXPECT_GT(env->bits_flipped(), 0);

  auto loaded = OutputStore::Load(path_);  // Old store still clean.
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->TotalEntries(), original.TotalEntries());
}

// --- Per-column salvage ----------------------------------------------------

TEST_F(OutputStoreTest, SalvageKeepsVerifiedColumnsAndQuarantinesCorruptCounts) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[bytes.size() - 1] ^= 0x01;  // Last count of column 2.
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  const LoadReport& report = salvaged->report;
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.columns_total, 2);
  EXPECT_EQ(report.columns_loaded, 1);
  EXPECT_EQ(report.entries_loaded, 4);
  EXPECT_EQ(report.entries_quarantined, 2);
  ASSERT_EQ(report.quarantined.size(), 1u);
  const QuarantinedColumn& q = report.quarantined[0];
  EXPECT_EQ(q.verdict, ColumnVerdict::kCountsCorrupt);
  EXPECT_EQ(q.resolution, 608);
  EXPECT_EQ(q.contrast_q, 2048);
  // The verified frame list survives for Repair.
  EXPECT_EQ(q.frames, (std::vector<int64_t>{8, 9}));

  // The intact column loaded with its exact data.
  ASSERT_EQ(salvaged->store.columns().size(), 1u);
  EXPECT_EQ(salvaged->store.columns()[0].resolution, 320);
  EXPECT_EQ(salvaged->store.columns()[0].counts, (std::vector<int>{2, 0, 5, 11}));
}

TEST_F(OutputStoreTest, SalvageQuarantinesCorruptFrameList) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[ColumnFramesOffset(kSampleCol2)] ^= 0x01;  // First frame byte of column 2.
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  ASSERT_EQ(salvaged->report.quarantined.size(), 1u);
  const QuarantinedColumn& q = salvaged->report.quarantined[0];
  EXPECT_EQ(q.verdict, ColumnVerdict::kFramesCorrupt);
  EXPECT_TRUE(q.frames.empty());  // An unverified frame list is never kept.
  EXPECT_EQ(salvaged->report.columns_loaded, 1);
}

TEST_F(OutputStoreTest, SalvageStopsAtCorruptMetadata) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[kSampleCol1 + 8] ^= 0x01;  // contrast_q of column 1: meta CRC breaks.
  WriteBytes(bytes);

  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  // Untrusted lengths desync the walk: both columns quarantined, none loaded.
  EXPECT_EQ(salvaged->report.columns_loaded, 0);
  ASSERT_EQ(salvaged->report.quarantined.size(), 2u);
  EXPECT_EQ(salvaged->report.quarantined[0].verdict, ColumnVerdict::kMetaCorrupt);
  EXPECT_EQ(salvaged->report.quarantined[1].verdict, ColumnVerdict::kTruncated);
}

TEST_F(OutputStoreTest, SalvageOfCleanFileIsClean) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_TRUE(salvaged->report.clean());
  EXPECT_EQ(salvaged->report.columns_loaded, 2);
  EXPECT_EQ(salvaged->store.columns().size(), 2u);
}

TEST_F(OutputStoreTest, SalvageTalliesBindToTheInjectedRegistry) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  bytes[bytes.size() - 1] ^= 0x01;  // Last count of column 2.
  WriteBytes(bytes);

  // The verdict tallies must land in the registry passed to THIS call — they
  // used to bind to the default registry once via function-local statics,
  // which made per-test isolation impossible.
  const int64_t default_calls_before =
      util::MetricsRegistry::Default().GetCounter("output_store.salvage.calls")->Value();
  util::MetricsRegistry registry;
  auto salvaged = OutputStore::Salvage(util::Env::Default(), path_, &registry);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_EQ(registry.GetCounter("output_store.salvage.calls")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("output_store.salvage.columns_loaded")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("output_store.salvage.columns_quarantined")->Value(), 1);
  EXPECT_EQ(registry.GetCounter("output_store.salvage.entries_loaded")->Value(), 4);
  EXPECT_EQ(registry.GetCounter("output_store.salvage.entries_quarantined")->Value(), 2);
  EXPECT_EQ(
      util::MetricsRegistry::Default().GetCounter("output_store.salvage.calls")->Value(),
      default_calls_before);

  // A second salvage through a second private registry starts from zero —
  // no cross-registry state survives.
  util::MetricsRegistry second;
  ASSERT_TRUE(OutputStore::Salvage(util::Env::Default(), path_, &second).ok());
  EXPECT_EQ(second.GetCounter("output_store.salvage.calls")->Value(), 1);
}

// --- Format version ----------------------------------------------------------

TEST_F(OutputStoreTest, V1HeaderIsRejected) {
  // Version 1 (a joint payload CRC per column, no meta CRC) is no longer
  // read. A header that says version 1 — with a header CRC that verifies —
  // is refused outright, by the strict and the salvage reader alike.
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());
  std::vector<char> bytes = ReadBytes();
  const uint32_t version = 1;
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  const uint32_t header_crc = util::Crc32(bytes.data(), kHeaderSize - 4);
  std::memcpy(bytes.data() + kHeaderSize - 4, &header_crc, sizeof(header_crc));
  WriteBytes(bytes);

  auto loaded = OutputStore::Load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  auto salvaged = OutputStore::Salvage(path_);
  ASSERT_FALSE(salvaged.ok());
  EXPECT_EQ(salvaged.status().code(), util::StatusCode::kInvalidArgument);
}

// --- Scrub / Repair round trip ---------------------------------------------

TEST_F(OutputStoreTest, ScrubThenRepairHealsCorruptCounts) {
  // Compute real outputs, persist, rot one count byte on disk, repair, and
  // the healed file must be bit-identical in effect: same outputs, clean
  // scrub, zero invocations after a warm start.
  QuerySpec spec;
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
  auto outputs = source.AllOutputs(spec, 320);
  ASSERT_TRUE(outputs.ok());
  ASSERT_TRUE(source.ExportStore().Save(path_).ok());

  // Flip a byte inside the counts region of the (single) column.
  std::vector<char> bytes = ReadBytes();
  const size_t counts_offset =
      ColumnFramesOffset(kHeaderSize) + static_cast<size_t>(dataset_->num_frames()) * 8;
  ASSERT_LT(counts_offset + 10, bytes.size());
  bytes[counts_offset + 10] ^= 0x40;
  WriteBytes(bytes);

  auto dirty = OutputStore::Scrub(util::Env::Default(), path_);
  ASSERT_TRUE(dirty.ok());
  EXPECT_FALSE(dirty->clean());

  FrameOutputSource healer(*dataset_, yolo_, ObjectClass::kCar);
  auto repair = healer.RepairStore(util::Env::Default(), path_);
  ASSERT_TRUE(repair.ok());
  EXPECT_TRUE(repair->rewritten);
  EXPECT_EQ(repair->columns_recomputed, 1);
  EXPECT_EQ(repair->entries_recomputed, dataset_->num_frames());
  EXPECT_EQ(repair->columns_dropped, 0);
  EXPECT_EQ(repair->entries_lost, 0);
  // Repair invocations are honest model invocations.
  EXPECT_EQ(healer.model_invocations(), dataset_->num_frames());

  auto clean = OutputStore::Scrub(util::Env::Default(), path_);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->clean());

  // The healed store warm-starts a fresh source to bit-identical outputs.
  auto healed = OutputStore::Load(path_);
  ASSERT_TRUE(healed.ok());
  FrameOutputSource warm(*dataset_, yolo_, ObjectClass::kCar);
  ASSERT_TRUE(warm.Preload(*healed).ok());
  auto warm_outputs = warm.AllOutputs(spec, 320);
  ASSERT_TRUE(warm_outputs.ok());
  EXPECT_EQ(*warm_outputs, *outputs);
  EXPECT_EQ(warm.model_invocations(), 0);
}

TEST_F(OutputStoreTest, RepairOfCleanStoreIsANoOp) {
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
  ASSERT_TRUE(source.RawCount(0, 320).ok());
  ASSERT_TRUE(source.ExportStore().Save(path_).ok());
  const std::vector<char> before = ReadBytes();

  FrameOutputSource healer(*dataset_, yolo_, ObjectClass::kCar);
  auto repair = healer.RepairStore(util::Env::Default(), path_);
  ASSERT_TRUE(repair.ok());
  EXPECT_FALSE(repair->rewritten);
  EXPECT_EQ(repair->columns_recomputed, 0);
  EXPECT_EQ(healer.model_invocations(), 0);
  EXPECT_EQ(ReadBytes(), before);  // File untouched.
}

TEST_F(OutputStoreTest, RepairDropsColumnsItCannotAttribute) {
  // A kCountsCorrupt column of a DIFFERENT class cannot be recomputed by a
  // kCar source; repair must drop it (and say so), not guess.
  OutputStore store(dataset_->dataset_id(), yolo_.model_id(), dataset_->num_frames());
  OutputColumnRecord column;
  column.resolution = 320;
  column.cls = static_cast<int>(ObjectClass::kFace);
  column.contrast_q = 4096;
  column.frames = {1, 2, 3};
  column.counts = {4, 5, 6};
  store.AddColumn(std::move(column));
  ASSERT_TRUE(store.Save(path_).ok());

  std::vector<char> bytes = ReadBytes();
  bytes[bytes.size() - 1] ^= 0x01;  // Corrupt the counts.
  WriteBytes(bytes);

  FrameOutputSource healer(*dataset_, yolo_, ObjectClass::kCar);
  auto repair = healer.RepairStore(util::Env::Default(), path_);
  ASSERT_TRUE(repair.ok());
  EXPECT_TRUE(repair->rewritten);
  EXPECT_EQ(repair->columns_recomputed, 0);
  EXPECT_EQ(repair->columns_dropped, 1);
  EXPECT_EQ(repair->entries_lost, 3);
  EXPECT_EQ(healer.model_invocations(), 0);

  auto scrubbed = OutputStore::Scrub(util::Env::Default(), path_);
  ASSERT_TRUE(scrubbed.ok());
  EXPECT_TRUE(scrubbed->clean());  // Dropped, but the file is honest now.
}

TEST_F(OutputStoreTest, RepairRejectsForeignProvenance) {
  ASSERT_TRUE(MakeSampleStore().Save(path_).ok());  // dataset 0xD5, model 0x7E.
  FrameOutputSource healer(*dataset_, yolo_, ObjectClass::kCar);
  auto repair = healer.RepairStore(util::Env::Default(), path_);
  ASSERT_FALSE(repair.ok());
  EXPECT_EQ(repair.status().code(), util::StatusCode::kInvalidArgument);
}

// --- Preload (unchanged semantics) -----------------------------------------

TEST_F(OutputStoreTest, ExportPreloadServesWithZeroInvocations) {
  // Compute everything once, export, then a brand-new source preloads the
  // store and must answer the same AllOutputs query with ZERO model
  // invocations and bit-identical outputs.
  QuerySpec spec;
  FrameOutputSource cold(*dataset_, yolo_, ObjectClass::kCar);
  auto cold_outputs = cold.AllOutputs(spec, 320);
  ASSERT_TRUE(cold_outputs.ok());
  ASSERT_EQ(cold.model_invocations(), dataset_->num_frames());
  ASSERT_TRUE(cold.ExportStore().Save(path_).ok());

  auto store = OutputStore::Load(path_);
  ASSERT_TRUE(store.ok());
  FrameOutputSource warm(*dataset_, yolo_, ObjectClass::kCar);
  auto preloaded = warm.Preload(*store);
  ASSERT_TRUE(preloaded.ok());
  EXPECT_EQ(*preloaded, dataset_->num_frames());
  // Preload must not pollute the counters.
  EXPECT_EQ(warm.model_invocations(), 0);
  EXPECT_EQ(warm.cache_hits(), 0);

  auto warm_outputs = warm.AllOutputs(spec, 320);
  ASSERT_TRUE(warm_outputs.ok());
  EXPECT_EQ(*warm_outputs, *cold_outputs);
  EXPECT_EQ(warm.model_invocations(), 0);
  EXPECT_EQ(warm.cache_hits(), dataset_->num_frames());
}

TEST_F(OutputStoreTest, PreloadRejectsMismatchedProvenance) {
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);

  OutputStore wrong_dataset(dataset_->dataset_id() + 1, yolo_.model_id(),
                            dataset_->num_frames());
  EXPECT_FALSE(source.Preload(wrong_dataset).ok());

  OutputStore wrong_model(dataset_->dataset_id(), yolo_.model_id() + 1,
                          dataset_->num_frames());
  EXPECT_FALSE(source.Preload(wrong_model).ok());

  OutputStore wrong_frames(dataset_->dataset_id(), yolo_.model_id(),
                           dataset_->num_frames() - 1);
  EXPECT_FALSE(source.Preload(wrong_frames).ok());
}

TEST_F(OutputStoreTest, PreloadRejectsOutOfRangeFrames) {
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
  OutputStore store(dataset_->dataset_id(), yolo_.model_id(), dataset_->num_frames());
  OutputColumnRecord column;
  column.resolution = 320;
  column.cls = static_cast<int>(ObjectClass::kCar);
  column.contrast_q = 4096;
  column.frames = {dataset_->num_frames()};  // One past the end.
  column.counts = {1};
  store.AddColumn(std::move(column));
  EXPECT_FALSE(source.Preload(store).ok());
}

TEST_F(OutputStoreTest, PreloadSkipsOtherClassColumns) {
  FrameOutputSource source(*dataset_, yolo_, ObjectClass::kCar);
  OutputStore store(dataset_->dataset_id(), yolo_.model_id(), dataset_->num_frames());
  OutputColumnRecord column;
  column.resolution = 320;
  column.cls = static_cast<int>(ObjectClass::kFace);  // Source serves kCar.
  column.contrast_q = 4096;
  column.frames = {1, 2};
  column.counts = {3, 4};
  store.AddColumn(std::move(column));
  auto preloaded = source.Preload(store);
  ASSERT_TRUE(preloaded.ok());
  EXPECT_EQ(*preloaded, 0);
}

}  // namespace
}  // namespace query
}  // namespace smokescreen
