// Storage-fault tolerance tests (DESIGN.md §15).
//
// Every durability syscall runs through the error-injecting I/O shim
// (src/durability/io.h), so these tests dial per-point probabilities to
// inject EIO, ENOSPC, short writes, fsync failure, and read-side bit flips
// — and assert the engine *never* aborts: the WAL seals fail-stop on a
// failed fsync (and is never written again), sealed AEUs are quarantined
// sticky, the engine degrades to read-only while reads keep serving, the
// scrubber quarantines corrupt cold snapshots, and the WAL frame parser
// survives arbitrary hostile bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "durability/io.h"
#include "durability/manager.h"
#include "durability/wal.h"

namespace eris::core {
namespace {

namespace fs = std::filesystem;
using storage::ObjectId;

std::string MakeTempDir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                     "/eris-fault-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* dir = ::mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr) << "mkdtemp failed: " << std::strerror(errno);
  return dir != nullptr ? std::string(dir) : std::string();
}

struct TempDir {
  std::string path = MakeTempDir();
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);  // best effort
  }
};

/// Resets the global injector on scope exit so a failing assertion cannot
/// leak armed probabilities into later tests.
struct InjectorGuard {
  InjectorGuard() { fi::FaultInjector::Global().Reset(); }
  ~InjectorGuard() { fi::FaultInjector::Global().Reset(); }
};

EngineOptions DurableOptions(const std::string& dir, ExecutionMode mode) {
  EngineOptions opts;
  opts.topology = numa::Topology::Flat(1, 2);
  opts.mode = mode;
  opts.durability.enabled = true;
  opts.durability.dir = dir;
  return opts;
}

std::vector<uint8_t> Body(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

// ---------------------------------------------------------------------------
// WalWriter fail-stop seal semantics
// ---------------------------------------------------------------------------

TEST(WalSeal, FsyncFailureSealsAndNeverWritesAgain) {
  InjectorGuard guard;
  TempDir tmp;
  std::string path = tmp.path + "/wal.log";
  durability::DurabilityOptions opts;
  durability::WalWriter w;
  ASSERT_TRUE(w.Open(path, opts, 1, 0).ok());

  // A clean group first, so the seal provably preserves the durable prefix.
  ASSERT_TRUE(w.Append(Body({1, 2, 3})).ok());
  ASSERT_TRUE(w.Commit().ok());
  uint64_t durable_size = fs::file_size(path);
  ASSERT_GT(durable_size, 0u);

  ASSERT_TRUE(w.Append(Body({4, 5})).ok());
  fi::FaultInjector::Global().SetFailProbability(fi::Point::kIoFsyncError,
                                                 1.0);
  Status st = w.Commit();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_EQ(st.detail(), StatusDetail::kWalSealed) << st.ToString();
  EXPECT_TRUE(w.sealed());
  EXPECT_EQ(w.stats().io_errors, 1u);
  EXPECT_EQ(w.buffered_bytes(), 0u);  // the doomed group was discarded

  // fsyncgate: even with the device "healthy" again, the writer must never
  // touch the file — no retry-and-assume-durable.
  fi::FaultInjector::Global().Reset();
  uint64_t size_after_seal = fs::file_size(path);
  EXPECT_FALSE(w.Append(Body({6})).ok());
  EXPECT_FALSE(w.Commit().ok());
  EXPECT_FALSE(w.Rotate().ok());
  EXPECT_EQ(w.Commit().detail(), StatusDetail::kWalSealed);
  EXPECT_EQ(fs::file_size(path), size_after_seal);
  EXPECT_EQ(w.stats().io_errors, 1u);  // one seal, not one per rejected call

  // After a failed fsync the group's durability is *unknown* — here the
  // injected fault failed only the fsync, so the write() survived and
  // replay delivers both groups. That is the allowed direction of the
  // invariant: the second group was never acknowledged, and
  // acked ⊆ recovered permits recovering unacknowledged work. What the
  // seal guarantees is that nothing was acked on the strength of the
  // failed fsync, and that the file can never diverge further.
  durability::WalReplayResult rr;
  uint64_t applied = 0;
  ASSERT_TRUE(durability::ReplayWal(
                  path, 0, [&](uint64_t, std::span<const uint8_t>) {
                    ++applied;
                  }, &rr)
                  .ok());
  EXPECT_EQ(applied, 2u);
  EXPECT_GE(rr.valid_end, durable_size);
  EXPECT_EQ(rr.valid_end, size_after_seal);
}

TEST(WalSeal, WriteErrorSeals) {
  InjectorGuard guard;
  TempDir tmp;
  durability::DurabilityOptions opts;
  durability::WalWriter w;
  ASSERT_TRUE(w.Open(tmp.path + "/wal.log", opts, 1, 0).ok());
  ASSERT_TRUE(w.Append(Body({1})).ok());
  fi::FaultInjector::Global().SetFailProbability(fi::Point::kIoWriteError,
                                                 1.0);
  Status st = w.Commit();
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_EQ(st.detail(), StatusDetail::kWalSealed);
  EXPECT_TRUE(w.sealed());
  EXPECT_NE(std::string(st.message()).find(std::strerror(EIO)),
            std::string::npos)
      << st.ToString();
}

TEST(WalSeal, EnospcSeals) {
  InjectorGuard guard;
  TempDir tmp;
  durability::DurabilityOptions opts;
  durability::WalWriter w;
  ASSERT_TRUE(w.Open(tmp.path + "/wal.log", opts, 1, 0).ok());
  ASSERT_TRUE(w.Append(Body({1})).ok());
  fi::FaultInjector::Global().SetFailProbability(fi::Point::kIoNoSpace, 1.0);
  Status st = w.Commit();
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_TRUE(w.sealed());
  // The errno detail survives into the typed status.
  EXPECT_NE(std::string(st.message()).find(std::strerror(ENOSPC)),
            std::string::npos)
      << st.ToString();
}

TEST(WalSeal, ShortWritesResumeTransparently) {
  InjectorGuard guard;
  TempDir tmp;
  std::string path = tmp.path + "/wal.log";
  durability::DurabilityOptions opts;
  durability::WalWriter w;
  ASSERT_TRUE(w.Open(path, opts, 1, 0).ok());
  // Every write() persists only half its chunk; the resume loop must stitch
  // the group together byte-exactly.
  fi::FaultInjector::Global().SetFailProbability(fi::Point::kIoShortWrite,
                                                 1.0);
  std::vector<std::vector<uint8_t>> bodies;
  for (uint8_t i = 0; i < 16; ++i) {
    bodies.push_back(std::vector<uint8_t>(32 + i, i));
    ASSERT_TRUE(w.Append(bodies.back()).ok());
  }
  uint64_t committed = 0;
  ASSERT_TRUE(w.Commit(&committed).ok());
  EXPECT_EQ(committed, 16u);
  EXPECT_FALSE(w.sealed());
  fi::FaultInjector::Global().Reset();

  size_t next = 0;
  durability::WalReplayResult rr;
  ASSERT_TRUE(durability::ReplayWal(
                  path, 0,
                  [&](uint64_t, std::span<const uint8_t> body) {
                    ASSERT_LT(next, bodies.size());
                    EXPECT_TRUE(std::equal(body.begin(), body.end(),
                                           bodies[next].begin(),
                                           bodies[next].end()));
                    ++next;
                  },
                  &rr)
                  .ok());
  EXPECT_EQ(next, bodies.size());
  EXPECT_FALSE(rr.torn);
}

// ---------------------------------------------------------------------------
// Engine-level: seal -> quarantine -> degraded read-only
// ---------------------------------------------------------------------------

TEST(EngineFault, SealedWalQuarantinesAeuAndDegradesEngine) {
  InjectorGuard guard;
  TempDir tmp;
  EngineOptions opts = DurableOptions(tmp.path, ExecutionMode::kThreads);
  Engine engine(opts);
  storage::Key domain_hi = storage::Key{1} << 16;
  ObjectId idx = engine.CreateIndex("kv", domain_hi,
                                    {.prefix_bits = 8, .key_bits = 16});
  engine.Start();
  auto session = engine.CreateSession();
  session->set_op_timeout_ns(2'000'000'000);  // bounded, generous

  // Seed both AEUs with clean durable data.
  storage::Key low = 16;                // AEU 0's range
  storage::Key high = domain_hi - 16;   // AEU 1's range
  std::vector<routing::KeyValue> seed{{low, 1}, {high, 2}};
  ASSERT_TRUE(session->SubmitUpsert(idx, seed).ok());

  // Every fsync now fails: the next write's group commit seals that AEU's
  // log. The write must complete with a typed status — no abort, no hang.
  fi::FaultInjector::Global().SetFailProbability(fi::Point::kIoFsyncError,
                                                 1.0);
  std::vector<routing::KeyValue> doomed{{low + 1, 3}};
  Engine::Session::SubmitOutcome outcome;
  Status st = session->SubmitInsert(idx, doomed, &outcome);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable() || st.IsDeadlineExceeded()) << st.ToString();
  if (st.IsUnavailable() && outcome.wal_sealed > 0) {
    EXPECT_EQ(st.detail(), StatusDetail::kWalSealed);
  }

  // The fail-stop propagates: AEU 0 sealed + quarantined, engine degraded.
  for (int i = 0; i < 500 && !engine.degraded(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(engine.degraded());
  ASSERT_TRUE(engine.WalSealed(0));
  EXPECT_NE(engine.degraded_reason().find("WAL sealed"), std::string::npos)
      << engine.degraded_reason();
  EXPECT_TRUE(engine.router().IsAeuStalled(0));
  fi::FaultInjector::Global().Reset();

  // Sticky quarantine: the sealed AEU's loop keeps running (heartbeat
  // advances), but no number of health passes may unseal it.
  for (int i = 0; i < 10; ++i) {
    engine.CheckAeuHealth();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(engine.router().IsAeuStalled(0)) << "pass " << i;
    EXPECT_TRUE(engine.watchdog().stalled(0)) << "pass " << i;
  }

  // Degraded read-only: writes fail fast (typed, before admission) ...
  uint64_t rejections_before = engine.admission().rejections();
  std::vector<routing::KeyValue> blocked{{high - 1, 4}};
  st = session->SubmitInsert(idx, blocked);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(st.detail(), StatusDetail::kReadOnly) << st.ToString();
  EXPECT_GT(engine.admission().rejections(), rejections_before);

  // ... while reads on the healthy AEU keep serving.
  std::vector<storage::Key> high_keys{high};
  Engine::Session::SubmitOutcome read_out;
  st = session->SubmitLookup(idx, high_keys, &read_out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(read_out.hits, 1u);

  // Reads routed at the sealed AEU fail fast too (typed, not hanging).
  std::vector<storage::Key> low_keys{low};
  st = session->SubmitLookup(idx, low_keys);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();

  // Snapshots are refused while a WAL is sealed: the in-memory state is
  // ahead of the log.
  st = engine.Snapshot();
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(st.detail(), StatusDetail::kWalSealed);

  engine.Stop();  // must not abort while a sealed WAL is attached
}

TEST(EngineFault, SealErrorImpliesDegradedOnReturn) {
  // Zero acks after the seal (DESIGN.md §15) needs the engine to degrade
  // before any waiter learns of the seal: a client that got kWalSealed
  // must already read degraded(), with no grace period. The window is a
  // cross-thread race, so the check repeats over fresh threaded engines.
  InjectorGuard guard;
  constexpr int kRounds = 30;
  int sealed_rounds = 0;
  for (int round = 0; round < kRounds; ++round) {
    TempDir tmp;
    Engine engine(DurableOptions(tmp.path, ExecutionMode::kThreads));
    storage::Key domain_hi = storage::Key{1} << 16;
    ObjectId idx = engine.CreateIndex("kv", domain_hi,
                                      {.prefix_bits = 8, .key_bits = 16});
    engine.Start();
    auto session = engine.CreateSession();
    session->set_op_timeout_ns(2'000'000'000);
    std::vector<routing::KeyValue> seed{{16, 1}};
    ASSERT_TRUE(session->SubmitUpsert(idx, seed).ok()) << "round " << round;

    fi::FaultInjector::Global().SetFailProbability(fi::Point::kIoFsyncError,
                                                   1.0);
    std::vector<routing::KeyValue> doomed{{17, 2}};
    Status st = session->SubmitInsert(idx, doomed);
    const bool degraded_on_return = engine.degraded();
    fi::FaultInjector::Global().Reset();
    ASSERT_FALSE(st.ok()) << "round " << round;
    if (st.detail() == StatusDetail::kWalSealed) {
      ++sealed_rounds;
      EXPECT_TRUE(degraded_on_return)
          << "round " << round << ": kWalSealed returned before the engine "
          << "degraded";
    }
    engine.Stop();
  }
  // The seal path, not a deadline, must be what the rounds exercised.
  EXPECT_GT(sealed_rounds, 0);
}

TEST(EngineFault, SnapshotEnospcDegradesAndHeals) {
  InjectorGuard guard;
  TempDir tmp;
  Engine engine(DurableOptions(tmp.path, ExecutionMode::kSimulated));
  storage::Key domain_hi = storage::Key{1} << 16;
  ObjectId idx = engine.CreateIndex("kv", domain_hi,
                                    {.prefix_bits = 8, .key_bits = 16});
  engine.Start();
  auto session = engine.CreateSession();
  std::vector<routing::KeyValue> kvs{{5, 50}, {60000, 60}};
  ASSERT_TRUE(session->SubmitUpsert(idx, kvs).ok());
  ASSERT_TRUE(engine.Snapshot().ok());  // clean baseline, WALs rotated

  // Disk full during the next snapshot: the engine degrades but must not
  // seal any WAL (no residue was pending) and must not abort.
  fi::FaultInjector::Global().SetFailProbability(fi::Point::kIoNoSpace, 1.0);
  Status st = engine.Snapshot();
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
  EXPECT_NE(std::string(st.message()).find(std::strerror(ENOSPC)),
            std::string::npos)
      << st.ToString();
  EXPECT_TRUE(engine.degraded());
  EXPECT_FALSE(engine.AnyWalSealed());

  // Writes fail fast; reads serve.
  std::vector<routing::KeyValue> more{{6, 60}};
  st = session->SubmitInsert(idx, more);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(st.detail(), StatusDetail::kReadOnly);
  std::vector<storage::Key> keys{5};
  EXPECT_TRUE(session->SubmitLookup(idx, keys).ok());

  // Space freed: a clean snapshot heals the ENOSPC degradation (no WAL
  // sealed, so the engine is fully writable again).
  fi::FaultInjector::Global().Reset();
  ASSERT_TRUE(engine.Snapshot().ok());
  EXPECT_FALSE(engine.degraded());
  EXPECT_TRUE(session->SubmitInsert(idx, more).ok());
  engine.Stop();
}

// ---------------------------------------------------------------------------
// Scrubber: cold-state CRC verification and quarantine
// ---------------------------------------------------------------------------

/// Flips one byte near the middle of the first part-*.bin inside `dir`.
void CorruptOnePartFile(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("part-", 0) != 0) continue;
    uint64_t size = fs::file_size(entry.path());
    ASSERT_GT(size, 16u);
    std::FILE* f = std::fopen(entry.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(size / 2), SEEK_SET), 0);
    uint8_t b = 0;
    ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
    b ^= 0x10;
    ASSERT_EQ(std::fseek(f, static_cast<long>(size / 2), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
    std::fclose(f);
    return;
  }
  FAIL() << "no part file found in " << dir;
}

TEST(Scrubber, QuarantinesCorruptColdSnapshotKeepsLiveOne) {
  InjectorGuard guard;
  TempDir tmp;
  storage::Key domain_hi = storage::Key{1} << 16;
  {
    Engine engine(DurableOptions(tmp.path, ExecutionMode::kSimulated));
    ObjectId idx = engine.CreateIndex("kv", domain_hi,
                                      {.prefix_bits = 8, .key_bits = 16});
    engine.Start();
    auto session = engine.CreateSession();
    std::vector<routing::KeyValue> kvs{{7, 70}, {50000, 55}};
    ASSERT_TRUE(session->SubmitUpsert(idx, kvs).ok());
    ASSERT_TRUE(engine.Snapshot().ok());  // snap-1, CURRENT -> 1
    engine.Stop();
  }
  // Fake a cold (non-live) snapshot and rot one of its partition files.
  fs::copy(tmp.path + "/snap-1", tmp.path + "/snap-7",
           fs::copy_options::recursive);
  CorruptOnePartFile(tmp.path + "/snap-7");

  Engine engine(DurableOptions(tmp.path, ExecutionMode::kSimulated));
  engine.CreateIndex("kv", domain_hi, {.prefix_bits = 8, .key_bits = 16});
  Engine::ScrubReport report;
  Status st = engine.ScrubStorage(&report);
  EXPECT_FALSE(st.ok()) << "scrub must surface the corruption";
  EXPECT_EQ(report.snapshots_checked, 2u);
  EXPECT_GE(report.corrupt_files, 1u);
  EXPECT_EQ(report.snapshots_quarantined, 1u);
  EXPECT_FALSE(fs::exists(tmp.path + "/snap-7"));
  EXPECT_TRUE(fs::exists(tmp.path + "/quarantine-snap-7"));
  EXPECT_TRUE(fs::exists(tmp.path + "/snap-1"));

  // Rot the *live* snapshot: reported, but never quarantined (it is the
  // only full copy recovery has).
  CorruptOnePartFile(tmp.path + "/snap-1");
  st = engine.ScrubStorage(&report);
  EXPECT_FALSE(st.ok());
  EXPECT_GE(report.corrupt_files, 1u);
  EXPECT_EQ(report.snapshots_quarantined, 0u);
  EXPECT_TRUE(fs::exists(tmp.path + "/snap-1"));

  // Recovery against the rotted live snapshot fails typed — no crash.
  ObjectId idx2 = 0;
  {
    Engine fresh(DurableOptions(tmp.path, ExecutionMode::kSimulated));
    idx2 = fresh.CreateIndex("kv", domain_hi,
                             {.prefix_bits = 8, .key_bits = 16});
    (void)idx2;
    Status rec = fresh.Recover();
    EXPECT_FALSE(rec.ok());
    EXPECT_TRUE(rec.IsIoError()) << rec.ToString();
    EXPECT_NE(std::string(rec.message()).find("CRC"), std::string::npos)
        << rec.ToString();
  }
}

TEST(Scrubber, InjectedReadFlipIsCaughtTyped) {
  InjectorGuard guard;
  TempDir tmp;
  storage::Key domain_hi = storage::Key{1} << 16;
  {
    Engine engine(DurableOptions(tmp.path, ExecutionMode::kSimulated));
    ObjectId idx = engine.CreateIndex("kv", domain_hi,
                                      {.prefix_bits = 8, .key_bits = 16});
    engine.Start();
    auto session = engine.CreateSession();
    std::vector<routing::KeyValue> kvs{{9, 90}};
    ASSERT_TRUE(session->SubmitUpsert(idx, kvs).ok());
    ASSERT_TRUE(engine.Snapshot().ok());
    engine.Stop();
  }
  // Every read flips one byte: some CRC layer (CURRENT, meta, partition)
  // must catch it and recovery must fail typed, never crash or restore
  // silently corrupted state.
  fi::FaultInjector::Global().SetFailProbability(fi::Point::kIoReadFlip, 1.0);
  Engine engine(DurableOptions(tmp.path, ExecutionMode::kSimulated));
  engine.CreateIndex("kv", domain_hi, {.prefix_bits = 8, .key_bits = 16});
  Status st = engine.Recover();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIoError()) << st.ToString();
}

// ---------------------------------------------------------------------------
// WAL frame-parser fuzz: hostile bytes must never crash, over-allocate, or
// surface an uncommitted group.
// ---------------------------------------------------------------------------

uint32_t FuzzFrameCrc(const durability::WalFrame& f,
                      std::span<const uint8_t> body) {
  uint32_t c = durability::Crc32(&f.lsn, sizeof(f.lsn));
  c = durability::Crc32(&f.body_bytes, sizeof(f.body_bytes), c);
  c = durability::Crc32(&f.flags, sizeof(f.flags), c);
  if (!body.empty()) c = durability::Crc32(body.data(), body.size(), c);
  return c;
}

void AppendFrame(std::vector<uint8_t>* out, uint64_t lsn,
                 std::span<const uint8_t> body, uint32_t flags,
                 bool valid_crc = true) {
  durability::WalFrame f;
  f.lsn = lsn;
  f.body_bytes = static_cast<uint32_t>(body.size());
  f.flags = flags;
  f.crc = FuzzFrameCrc(f, body);
  if (!valid_crc) f.crc ^= 0xA5A5A5A5u;
  const auto* p = reinterpret_cast<const uint8_t*>(&f);
  out->insert(out->end(), p, p + sizeof f);
  out->insert(out->end(), body.begin(), body.end());
  out->resize(out->size() + (8 - body.size() % 8) % 8, 0);  // pad to 8
}

void WriteBytes(const std::string& path, std::span<const uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// Replays `bytes` as a log file; asserts the invariants every parse must
/// hold, and returns the result for case-specific checks.
durability::WalReplayResult FuzzReplay(const std::string& dir,
                                       std::span<const uint8_t> bytes,
                                       uint64_t* applied_out = nullptr) {
  std::string path = dir + "/fuzz.log";
  WriteBytes(path, bytes);
  durability::WalReplayResult rr;
  uint64_t applied = 0;
  uint64_t applied_bytes = 0;
  Status st = durability::ReplayWal(
      path, 0,
      [&](uint64_t, std::span<const uint8_t> body) {
        ++applied;
        applied_bytes += body.size();
      },
      &rr);
  EXPECT_TRUE(st.ok()) << st.ToString();  // hostile bytes are torn, not EIO
  EXPECT_LE(rr.valid_end, bytes.size());
  EXPECT_EQ(applied, rr.records_applied);
  // No over-allocation: every delivered body must lie inside the file.
  EXPECT_LE(applied_bytes, bytes.size());
  if (applied_out != nullptr) *applied_out = applied;
  return rr;
}

TEST(WalFuzz, RandomBytesNeverCrash) {
  TempDir tmp;
  std::mt19937_64 rng(0xE1215);
  for (int round = 0; round < 64; ++round) {
    size_t size = static_cast<size_t>(rng() % 4096);
    std::vector<uint8_t> bytes(size);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
    FuzzReplay(tmp.path, bytes);
  }
}

TEST(WalFuzz, ValidFramesWithRandomTailMutations) {
  TempDir tmp;
  // A well-formed two-group log whose bytes get point mutations: parsing
  // must stay crash-free and only ever deliver CRC-clean committed groups.
  std::vector<uint8_t> good;
  std::vector<uint8_t> body1(40, 0x11);
  std::vector<uint8_t> body2(64, 0x22);
  AppendFrame(&good, 1, body1, 0);
  AppendFrame(&good, 2, {}, durability::kWalFlagCommit);
  AppendFrame(&good, 3, body2, 0);
  AppendFrame(&good, 4, {}, durability::kWalFlagCommit);
  uint64_t applied = 0;
  durability::WalReplayResult rr = FuzzReplay(tmp.path, good, &applied);
  ASSERT_FALSE(rr.torn);
  ASSERT_EQ(applied, 2u);

  std::mt19937_64 rng(0xBADF00D);
  for (int round = 0; round < 256; ++round) {
    std::vector<uint8_t> mutated = good;
    mutated[rng() % mutated.size()] ^=
        static_cast<uint8_t>(1u << (rng() % 8));
    FuzzReplay(tmp.path, mutated);
  }
}

TEST(WalFuzz, OversizedBodyBytesIsTornNotAllocated) {
  TempDir tmp;
  // body_bytes near UINT32_MAX with a tiny actual file: the parser must
  // reject on bounds, not allocate or read 4 GiB.
  for (uint32_t huge : {0xFFFFFFFFu, 0xFFFFFFF0u, 0x80000000u, 0x7FFFFFFFu}) {
    std::vector<uint8_t> bytes;
    durability::WalFrame f;
    f.lsn = 1;
    f.body_bytes = huge;
    f.flags = 0;
    f.crc = FuzzFrameCrc(f, {});
    const auto* p = reinterpret_cast<const uint8_t*>(&f);
    bytes.insert(bytes.end(), p, p + sizeof f);
    bytes.resize(bytes.size() + 64, 0xCC);  // far less than body_bytes
    uint64_t applied = 0;
    durability::WalReplayResult rr = FuzzReplay(tmp.path, bytes, &applied);
    EXPECT_TRUE(rr.torn);
    EXPECT_EQ(applied, 0u);
    EXPECT_EQ(rr.valid_end, 0u);
  }
}

TEST(WalFuzz, BadMagicStopsParse) {
  TempDir tmp;
  std::vector<uint8_t> bytes;
  std::vector<uint8_t> body(16, 0x33);
  AppendFrame(&bytes, 1, body, 0);
  AppendFrame(&bytes, 2, {}, durability::kWalFlagCommit);
  size_t second_group = bytes.size();
  AppendFrame(&bytes, 3, body, 0);
  // Smash the third frame's magic.
  bytes[second_group] ^= 0xFF;
  uint64_t applied = 0;
  durability::WalReplayResult rr = FuzzReplay(tmp.path, bytes, &applied);
  EXPECT_TRUE(rr.torn);
  EXPECT_EQ(applied, 1u);  // the committed first group survives
  EXPECT_EQ(rr.valid_end, second_group);
}

TEST(WalFuzz, MidFrameTruncationAtEveryOffset) {
  TempDir tmp;
  std::vector<uint8_t> bytes;
  std::vector<uint8_t> body(24, 0x44);
  AppendFrame(&bytes, 1, body, 0);
  AppendFrame(&bytes, 2, {}, durability::kWalFlagCommit);
  size_t committed_end = bytes.size();
  AppendFrame(&bytes, 3, body, 0);
  AppendFrame(&bytes, 4, {}, durability::kWalFlagCommit);
  // Chop inside the second group at every offset: exactly group 1 survives.
  for (size_t cut = committed_end; cut < bytes.size(); ++cut) {
    uint64_t applied = 0;
    durability::WalReplayResult rr = FuzzReplay(
        tmp.path, std::span<const uint8_t>(bytes.data(), cut), &applied);
    EXPECT_EQ(applied, 1u) << "cut at " << cut;
    EXPECT_EQ(rr.valid_end, committed_end) << "cut at " << cut;
    EXPECT_TRUE(rr.torn || cut == committed_end) << "cut at " << cut;
  }
}

TEST(WalFuzz, UncommittedGroupNeverApplied) {
  TempDir tmp;
  // CRC-clean records with no commit frame: nothing may be delivered even
  // though every frame individually checks out.
  std::vector<uint8_t> bytes;
  std::vector<uint8_t> body(32, 0x55);
  AppendFrame(&bytes, 1, body, 0);
  AppendFrame(&bytes, 2, body, 0);
  uint64_t applied = 0;
  durability::WalReplayResult rr = FuzzReplay(tmp.path, bytes, &applied);
  EXPECT_EQ(applied, 0u);
  EXPECT_TRUE(rr.torn);
  EXPECT_EQ(rr.valid_end, 0u);

  // A commit frame whose CRC is wrong does not seal the group either.
  AppendFrame(&bytes, 3, {}, durability::kWalFlagCommit,
              /*valid_crc=*/false);
  rr = FuzzReplay(tmp.path, bytes, &applied);
  EXPECT_EQ(applied, 0u);
  EXPECT_TRUE(rr.torn);
}

}  // namespace
}  // namespace eris::core
