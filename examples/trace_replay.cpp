// Trace record/replay: capture a calibrated synthetic miss stream to a
// file, replay it through the simulator, and verify the replayed run is
// bit-identical to the live-generated one. This is the workflow for
// importing externally captured traces (convert them to the bwpt format
// and drive FileTraceSource).
//
//   ./examples/trace_replay [ops]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "cpu/core.hpp"
#include "mem/controller.hpp"
#include "workload/spec_table.hpp"
#include "workload/synthetic_trace.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace bwpart;

struct RunStats {
  std::uint64_t instructions = 0;
  std::uint64_t accesses = 0;
};

RunStats simulate(cpu::TraceSource& trace, Cycle cycles) {
  mem::MemoryController controller(
      dram::DramConfig::ddr2_400(), Frequency::from_ghz(5.0), 1,
      std::make_unique<mem::FcfsScheduler>());
  cpu::CoreConfig cfg;
  cfg.nonmem_ipc_x100 = 200;
  cpu::OoOCore core(0, cfg, trace, controller);
  controller.set_completion_callback(
      [&core](const mem::MemRequest& r, Cycle done) {
        core.on_mem_complete(r, done);
      });
  for (Cycle t = 0; t < cycles; ++t) {
    core.tick(t);
    controller.tick(t);
  }
  return {core.stats().instructions, controller.app_stats(0).served()};
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t ops =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50'000;
  const char* path = "/tmp/bwpart_demo_trace.bwpt";

  // 1. Record hmmer's synthetic miss stream.
  auto live = workload::SyntheticTraceGenerator::from_benchmark(
      workload::find_benchmark("hmmer"), 0, 7);
  workload::record_trace(live, path, ops);
  std::printf("Recorded %llu hmmer ops to %s\n",
              static_cast<unsigned long long>(ops), path);

  // 2. Run the live generator and the replay through identical machines.
  auto live2 = workload::SyntheticTraceGenerator::from_benchmark(
      workload::find_benchmark("hmmer"), 0, 7);
  workload::FileTraceSource replay(path);
  const Cycle cycles = 1'000'000;
  const RunStats a = simulate(live2, cycles);
  const RunStats b = simulate(replay, cycles);

  std::printf("live run:   %llu instructions, %llu off-chip accesses\n",
              static_cast<unsigned long long>(a.instructions),
              static_cast<unsigned long long>(a.accesses));
  std::printf("replay run: %llu instructions, %llu off-chip accesses\n",
              static_cast<unsigned long long>(b.instructions),
              static_cast<unsigned long long>(b.accesses));
  std::printf(a.instructions == b.instructions && a.accesses == b.accesses
                  ? "bit-identical: yes\n"
                  : "bit-identical: NO (replay diverged!)\n");
  std::remove(path);
  return a.instructions == b.instructions ? 0 : 1;
}
