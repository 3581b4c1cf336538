// Microbenchmarks for phase 1 of the AC algorithm (automaton/STT
// construction) and the serial matchers. google-benchmark binary.
#include <benchmark/benchmark.h>

#include "ac/compressed_stt.h"
#include "ac/dfa.h"
#include "ac/parallel_matcher.h"
#include "ac/nfa_matcher.h"
#include "ac/pfac.h"
#include "ac/serial_matcher.h"
#include "workload/markov_corpus.h"
#include "workload/pattern_extract.h"

namespace {

using namespace acgpu;

ac::PatternSet patterns_for(std::uint32_t count) {
  static const std::string corpus = workload::make_corpus(4 << 20, 999);
  workload::ExtractConfig ec;
  ec.count = count;
  return workload::extract_patterns(corpus, ec);
}

void BM_TrieBuild(benchmark::State& state) {
  const auto set = patterns_for(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    ac::Trie trie(set);
    benchmark::DoNotOptimize(trie.node_count());
  }
  state.SetLabel(std::to_string(set.size()) + " patterns");
}
BENCHMARK(BM_TrieBuild)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AutomatonBuild(benchmark::State& state) {
  const auto set = patterns_for(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    ac::Automaton automaton(set);
    benchmark::DoNotOptimize(automaton.state_count());
  }
}
BENCHMARK(BM_AutomatonBuild)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DfaBuild(benchmark::State& state) {
  const auto set = patterns_for(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    const ac::Dfa dfa = ac::build_dfa(set);
    benchmark::DoNotOptimize(dfa.state_count());
  }
}
BENCHMARK(BM_DfaBuild)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SerialMatch(benchmark::State& state) {
  const auto set = patterns_for(static_cast<std::uint32_t>(state.range(0)));
  const ac::Dfa dfa = ac::build_dfa(set);
  const std::string text = workload::make_corpus(1 << 20, 1000);
  for (auto _ : state) benchmark::DoNotOptimize(ac::count_matches(dfa, text));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_SerialMatch)->Arg(100)->Arg(1000)->Arg(10000);

// The DFA's selling point: compare against walking goto/failure links.
void BM_NfaMatch(benchmark::State& state) {
  const auto set = patterns_for(1000);
  const ac::Automaton automaton(set);
  const std::string text = workload::make_corpus(1 << 20, 1001);
  for (auto _ : state) {
    ac::CountSink sink;
    ac::match_nfa(automaton, text, sink);
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_NfaMatch);

void BM_CompressedSttBuild(benchmark::State& state) {
  const auto set = patterns_for(static_cast<std::uint32_t>(state.range(0)));
  const ac::Dfa dfa = ac::build_dfa(set);
  for (auto _ : state) {
    ac::CompressedStt c(dfa);
    benchmark::DoNotOptimize(c.size_bytes());
  }
  state.SetLabel("ratio " +
                 std::to_string(ac::CompressedStt(dfa).compression_ratio()));
}
BENCHMARK(BM_CompressedSttBuild)->Arg(1000)->Arg(10000);

void BM_CompressedSttMatch(benchmark::State& state) {
  const auto set = patterns_for(1000);
  const ac::Dfa dfa = ac::build_dfa(set);
  const ac::CompressedStt c(dfa);
  const std::string text = workload::make_corpus(1 << 20, 1003);
  for (auto _ : state) {
    ac::CountSink sink;
    ac::match_compressed(c, dfa, text, sink);
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_CompressedSttMatch);

void BM_ParallelMatch(benchmark::State& state) {
  const auto set = patterns_for(1000);
  const ac::Dfa dfa = ac::build_dfa(set);
  const std::string text = workload::make_corpus(1 << 20, 1004);
  for (auto _ : state)
    benchmark::DoNotOptimize(ac::count_matches_parallel(
        dfa, text, static_cast<unsigned>(state.range(0))));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
// Worker threads do the scanning while the main thread waits, so only wall
// time measures the scan (CPU time would count just the waiting thread).
BENCHMARK(BM_ParallelMatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_PfacSerialMatch(benchmark::State& state) {
  const auto set = patterns_for(1000);
  const ac::PfacAutomaton pfac(set);
  const std::string text = workload::make_corpus(1 << 20, 1002);
  for (auto _ : state) benchmark::DoNotOptimize(ac::find_all_pfac(pfac, text).size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_PfacSerialMatch);

}  // namespace

BENCHMARK_MAIN();
