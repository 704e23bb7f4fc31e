// Unit tests for the common substrate: status, bytes, crc32, rng, pool.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"

namespace crac {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgument("bad size");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.to_string().find("bad size"), std::string::npos);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDeterminismViolation);
       ++c) {
    EXPECT_NE(to_string(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = NotFound("nope");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(BytesTest, RoundTripScalars) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i64(-77);
  w.put_f32(1.5f);
  w.put_f64(-2.25);
  w.put_string("hello");

  ByteReader r(w.bytes());
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  float f32 = 0;
  double f64 = 0;
  std::string s;
  ASSERT_TRUE(r.get_u8(u8).ok());
  ASSERT_TRUE(r.get_u16(u16).ok());
  ASSERT_TRUE(r.get_u32(u32).ok());
  ASSERT_TRUE(r.get_u64(u64).ok());
  ASSERT_TRUE(r.get_i64(i64).ok());
  ASSERT_TRUE(r.get_f32(f32).ok());
  ASSERT_TRUE(r.get_f64(f64).ok());
  ASSERT_TRUE(r.get_string(s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(i64, -77);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, TruncationIsDetected) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.bytes());
  std::uint64_t v;
  EXPECT_EQ(r.get_u64(v).code(), StatusCode::kCorrupt);
}

TEST(BytesTest, TruncatedStringDetected) {
  ByteWriter w;
  w.put_u32(100);  // claims 100 bytes but none follow
  ByteReader r(w.bytes());
  std::string s;
  EXPECT_EQ(r.get_string(s).code(), StatusCode::kCorrupt);
}

TEST(BytesTest, PatchU32) {
  ByteWriter w;
  const std::size_t slot = w.reserve_u32();
  w.put_u32(1);
  w.patch_u32(slot, 99);
  ByteReader r(w.bytes());
  std::uint32_t a, b;
  ASSERT_TRUE(r.get_u32(a).ok());
  ASSERT_TRUE(r.get_u32(b).ok());
  EXPECT_EQ(a, 99u);
  EXPECT_EQ(b, 1u);
}

TEST(BytesTest, FormatSize) {
  EXPECT_EQ(format_size(512), "512B");
  EXPECT_EQ(format_size(39u << 20), "39MB");
  EXPECT_EQ(format_size(std::uint64_t{23} << 30 / 10 * 10), "23.0GB");
}

TEST(Crc32Test, KnownVector) {
  // CRC32("123456789") == 0xCBF43926 (standard check value).
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(crc32("", 0), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = std::strlen(data);
  const std::uint32_t whole = crc32(data, n);
  for (std::size_t split = 0; split <= n; ++split) {
    const std::uint32_t part = crc32(data + split, n - split,
                                     crc32(data, split));
    EXPECT_EQ(part, whole) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<unsigned char> buf(1024);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(i);
  const std::uint32_t base = crc32(buf.data(), buf.size());
  buf[512] ^= 0x01;
  EXPECT_NE(crc32(buf.data(), buf.size()), base);
}

// crc32() folds inputs of 64 bytes or more with PCLMULQDQ on CPUs that have
// it and hands the tail to the table; the table path is the reference these
// cases compare it with. Every failure names the path that ran.
std::string crc32_path() {
  return crc32_uses_pclmul() ? "crc32 path: PCLMULQDQ fold + table tail"
                             : "crc32 path: table only";
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.next_u32());
  return out;
}

TEST(Crc32Test, MatchesTableAtEveryLengthAndAlignment) {
  std::printf("[          ] %s\n", crc32_path().c_str());
  SCOPED_TRACE(crc32_path());
  const auto buf = random_bytes(4096 + 15, 1);
  Rng seeds(2);
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::uint32_t seed = seeds.next_u32();
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(crc32(p, len, seed), crc32_table(p, len, seed))
          << "len " << len << ", align " << align << ", seed " << seed;
    }
  }
}

TEST(Crc32Test, IncrementalSplitsAcrossFoldBoundaryMatchTable) {
  SCOPED_TRACE(crc32_path());
  const auto buf = random_bytes(700, 3);
  const std::uint32_t whole = crc32_table(buf.data(), buf.size());
  for (std::size_t a = 0; a <= buf.size(); ++a) {
    for (std::size_t piece : {0, 1, 15, 16, 17, 63, 64, 65, 200}) {
      const std::size_t b = a + piece;
      if (b > buf.size()) continue;
      std::uint32_t c = crc32(buf.data(), a);
      c = crc32(buf.data() + a, b - a, c);
      c = crc32(buf.data() + b, buf.size() - b, c);
      ASSERT_EQ(c, whole) << "splits at " << a << " and " << b;
    }
  }
}

TEST(Crc32Test, MatchesTableAroundFoldSizes) {
  SCOPED_TRACE(crc32_path());
  const auto buf = random_bytes((std::size_t{1} << 20) + 64, 4);
  std::vector<std::size_t> lens = {63, 64, 65, buf.size() - 3};
  for (std::size_t blocks : {4, 5, 8, 255, 256, 4097, 65536}) {
    lens.insert(lens.end(), {16 * blocks - 1, 16 * blocks, 16 * blocks + 1});
  }
  for (std::size_t len : lens) {
    for (std::size_t align : {0, 1, 3}) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(crc32(p, len, 0x5eed), crc32_table(p, len, 0x5eed))
          << "len " << len << ", align " << align;
    }
  }
}

TEST(Crc32Test, KnownAnswersFromZlib) {
  // Values from Python's zlib.crc32, an implementation independent of both
  // paths here.
  SCOPED_TRACE(crc32_path());
  const std::vector<unsigned char> zeros(std::size_t{1} << 20);
  std::vector<unsigned char> ramp(100003);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<unsigned char>(i % 251);
  }
  for (auto* f : {&crc32, &crc32_table}) {
    EXPECT_EQ(f(zeros.data(), zeros.size(), 0), 0xA738EA1Cu);
    EXPECT_EQ(f(ramp.data(), ramp.size(), 0), 0xBCE3A8C1u);
    EXPECT_EQ(f(ramp.data() + 3, ramp.size() - 3, 0), 0xC15CB1BEu);
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, FloatInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.next_float();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(RngTest, RoughlyUniform) {
  Rng rng(11);
  int buckets[10] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(10)];
  for (int b : buckets) {
    EXPECT_GT(b, n / 10 - n / 50);
    EXPECT_LT(b, n / 10 + n / 50);
  }
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.drain();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int hits = 0;
  pool.parallel_for(0, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  pool.parallel_for(1, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadPoolTest, ConcurrentParallelForCallers) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      pool.parallel_for(100, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i));
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(sum.load(), 4 * (99 * 100 / 2));
}

// Overwrites the stack just below the caller's frame, where the previous
// parallel_for call kept its completion mutex.
__attribute__((noinline)) void scribble_stack() {
  volatile unsigned char junk[512];
  for (auto& b : junk) b = 0xFF;
}

// parallel_for keeps its completion mutex and condition variable on the
// caller's stack. A worker that touches them after the caller has seen the
// final count and returned locks memory that the next call (or the
// scribble) has reused: glibc then aborts ("__owner == 0"), fails the lock
// with EINVAL, or hangs. Two-index calls on an oversubscribed pool (16
// workers, 16 callers) give many short calls in which a worker is often
// preempted inside that window. The storm runs in a child under an alarm
// so a hang fails the test instead of stalling it.
TEST(ThreadPoolTest, TinyParallelForStormKeepsStackStateAlive) {
  constexpr int kCallers = 16;
  constexpr int kCalls = 10000;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(60);
    ThreadPool pool(16);
    std::atomic<long> sum{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&] {
        for (int call = 0; call < kCalls; ++call) {
          pool.parallel_for(2, [&](std::size_t i) {
            sum.fetch_add(static_cast<long>(i) + 1, std::memory_order_relaxed);
          });
          scribble_stack();
        }
      });
    }
    for (auto& t : callers) t.join();
    ::_exit(sum.load() == 3L * kCallers * kCalls ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "storm child " << (WIFSIGNALED(status) ? "died of signal " : "exited ")
      << (WIFSIGNALED(status) ? WTERMSIG(status) : WEXITSTATUS(status));
}

TEST(EnvTest, FallbacksWhenUnset) {
  EXPECT_EQ(env_int("CRAC_TEST_UNSET_VAR", 42), 42);
  EXPECT_EQ(env_double("CRAC_TEST_UNSET_VAR", 1.5), 1.5);
  EXPECT_FALSE(env_flag("CRAC_TEST_UNSET_VAR"));
}

TEST(EnvTest, ParsesValues) {
  ::setenv("CRAC_TEST_ENV_INT", "123", 1);
  ::setenv("CRAC_TEST_ENV_FLAG", "yes", 1);
  ::setenv("CRAC_TEST_ENV_BAD", "xyz", 1);
  EXPECT_EQ(env_int("CRAC_TEST_ENV_INT", 0), 123);
  EXPECT_TRUE(env_flag("CRAC_TEST_ENV_FLAG"));
  EXPECT_EQ(env_int("CRAC_TEST_ENV_BAD", 7), 7);
}

}  // namespace
}  // namespace crac
