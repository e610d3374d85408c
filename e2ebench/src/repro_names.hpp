// The repository's namespaces under their short names, inside e2e.
#pragma once

namespace repro {
namespace benchgen {}
namespace clfront {}
namespace common {}
namespace core {}
namespace gpusim {}
namespace kernels {}
namespace obs {}
namespace pareto {}
namespace serve {}
}  // namespace repro

namespace e2e {
namespace benchgen = repro::benchgen;
namespace clfront = repro::clfront;
namespace common = repro::common;
namespace core = repro::core;
namespace gpusim = repro::gpusim;
namespace kernels = repro::kernels;
namespace obs = repro::obs;
namespace pareto = repro::pareto;
namespace serve = repro::serve;
}  // namespace e2e
