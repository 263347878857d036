// Seeded workload inputs of a fixed shape.  The generation and conformance
// workloads pin the function count of every input position, so the size mix
// of their inputs, and with it their latency, is the same for every seed;
// the seed picks everything else.
#pragma once

#include "testing/rng.hpp"
#include "testing/spec_gen.hpp"

namespace splicebench {

/// A SpecGen spec with exactly `functions` declarations, drawn from the
/// generator at that maximum until one has that many.
inline splice::testing::SpecModel spec_with_functions(splice::testing::Rng& rng,
                                                      splice::testing::GenOptions g,
                                                      unsigned functions) {
  g.max_functions = functions;
  splice::testing::SpecModel m;
  do {
    m = splice::testing::generate_spec(rng.next(), g);
  } while (m.functions.size() != functions);
  return m;
}

}  // namespace splicebench
