// Exporting raw trajectories: runs the k-IGT dynamics on the census engine
// and writes the level census as CSV (via ppg::census_recorder) for
// external plotting — the raw data behind figures like the welfare
// trajectories of bench A3. The recorder accepts any engine kind.
//
// Usage: ./census_traces > trace.csv
#include <iostream>

#include "ppg/core/igt_count_chain.hpp"
#include "ppg/core/igt_protocol.hpp"
#include "ppg/pp/engine.hpp"
#include "ppg/pp/trace.hpp"

int main() {
  using namespace ppg;

  const auto pop = abg_population::from_fractions(400, 0.1, 0.2, 0.7);
  const std::size_t k = 5;

  const igt_protocol proto(k);
  const sim_spec spec(proto, igt_initial_counts(pop, k, 0));
  rng gen(99);
  const auto sim = spec.make_engine(engine_kind::census, gen);

  std::vector<std::string> columns = {"AC", "AD"};
  for (std::size_t j = 1; j <= k; ++j) {
    columns.push_back("g" + std::to_string(j));
  }
  census_recorder recorder(columns);

  recorder.record(*sim);
  const std::uint64_t stride = pop.n();  // one unit of parallel time
  for (int step = 0; step < 100; ++step) {
    sim->run(stride);
    recorder.record(*sim);
  }
  recorder.write_csv(std::cout);

  std::cerr << "wrote " << recorder.row_count()
            << " census rows (one per unit of parallel time); stationary "
               "prediction for the top level: "
            << igt_stationary_probs(pop, k).back() *
                   static_cast<double>(pop.num_gtft)
            << " agents\n";
  return 0;
}
