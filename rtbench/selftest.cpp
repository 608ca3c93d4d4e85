// Self-tests of the benchmark's own helpers: percentiles on known vectors,
// the typical-put band behind trace.coverage, generator determinism per
// seed, and the value codec the read checks rely on.  `rtbench --selftest` runs them; `run.py --selftest` also checks
// every printed metric name against BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "cluster_run.hpp"
#include "stats.hpp"
#include "trace_analysis.hpp"

namespace rtbench {

namespace {

bool sameOps(const std::vector<Op>& a, const std::vector<Op>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const Op& x, const Op& y) {
           return x.key == y.key && x.kind == y.kind;
         });
}

}  // namespace

int runSelfTests() {
  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  Rng shuffle(1, 2);
  for (size_t i = hundred.size() - 1; i > 0; --i) {
    std::swap(hundred[i], hundred[shuffle.next() % (i + 1)]);
  }
  check(percentile(hundred, 50) == 50, "p50 of 1..100 is 50");
  check(percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  check(percentile(hundred, 100) == 100 && percentile(hundred, 0) == 1,
        "p100 and p0 of 1..100 are its extremes");
  std::vector<double> four{4, 3, 2, 1};
  check(percentile(four, 50) == 2 && percentile(four, 75) == 3 &&
            percentile(four, 76) == 4,
        "nearest rank on {1,2,3,4}: p50 2, p75 3, p76 4");
  std::vector<int> one{7};
  check(percentile(one, 99) == 7, "one sample is every percentile");
  std::vector<double> none;
  check(std::isnan(percentile(none, 50)), "no samples give NaN");
  check(median(std::vector<double>{5, 1, 3}) == 3, "median of {5,1,3} is 3");

  std::vector<PutPath> paths;
  for (double t : hundred) {
    PutPath p;
    p.server = t / 2;
    p.total = t;
    p.covered = t - 1;
    paths.push_back(p);
  }
  const PutPath typical = typicalPut(paths);
  check(typical.total == 50 && typical.server == 25,
        "the typical put averages the p45-p55 band of 1..100");
  check(coverage(paths) == 49.0 / 50, "coverage is the band's covered share");

  const OpMix zipf{0.9, true};
  const OpMix uniform{0.5, false};
  check(sameOps(makeOps(7, 0, 20'000, zipf, kKeys),
                makeOps(7, 0, 20'000, zipf, kKeys)),
        "same seed and lane give the same ops");
  check(!sameOps(makeOps(7, 0, 20'000, zipf, kKeys),
                 makeOps(8, 0, 20'000, zipf, kKeys)),
        "another seed gives other ops");
  check(!sameOps(makeOps(7, 0, 20'000, uniform, kKeys),
                 makeOps(7, 1, 20'000, uniform, kKeys)),
        "lanes draw independent streams");
  check(makeArrivals(7, 10'000, 1'000'000'000) ==
            makeArrivals(7, 10'000, 1'000'000'000),
        "same seed gives the same arrivals");
  const auto arrivals = makeArrivals(7, 10'000, 10'000'000'000);
  check(std::abs(static_cast<double>(arrivals.size()) - 100'000) < 1'500,
        "Poisson arrivals hold the offered rate");
  StreamHash a, b, c;
  a.add(makeOps(7, 0, 1000, zipf, kKeys));
  b.add(makeOps(7, 0, 1000, zipf, kKeys));
  c.add(makeOps(8, 0, 1000, zipf, kKeys));
  check(a.value() == b.value() && a.value() != c.value(),
        "the stream hash follows the seed");

  const auto ops = makeOps(9, 0, 100'000, zipf, kKeys);
  const uint32_t hotKey = scatter(0, kKeys);
  double puts = 0;
  double hottest = 0;
  for (const Op& op : ops) {
    puts += op.kind == OpKind::kPut ? 1 : 0;
    hottest += op.key == hotKey ? 1 : 0;
  }
  check(std::abs(puts / 1e5 - 0.9) < 0.01, "the put share matches the mix");
  const double share = Zipf(kKeys, kZipfTheta).hottestShare();
  check(std::abs(hottest / 1e5 - share) < 0.1 * share,
        "the hottest Zipfian key gets its share");
  std::vector<bool> seen(kKeys);
  size_t distinct = 0;
  for (uint64_t r = 0; r < kKeys; ++r) {
    const uint32_t k = scatter(r, kKeys);
    distinct += seen[k] ? 0 : 1;
    seen[k] = true;
  }
  check(distinct == kKeys, "scatter is a bijection on the key space");

  const ValueCodec codec(7);
  const std::string value = codec.make(12345, 42);
  check(value.size() == kValueBytes && codec.known(value, 42),
        "a written value is recognised");
  check(!codec.known(value, 43), "a value written to another key is rejected");
  check(codec.known(preloadValue(), 42), "the preloaded value is recognised");
  std::string changedTag = value;
  changedTag[30] = changedTag[30] == '0' ? '1' : '0';
  check(!codec.known(changedTag, 42), "a changed tag is rejected");
  std::string changedPad = value;
  changedPad[100] = 'x';
  check(!codec.known(changedPad, 42), "changed padding is rejected");
  check(!ValueCodec(8).known(value, 42), "a value from another seed is rejected");

  std::printf("%d self-test failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace rtbench
