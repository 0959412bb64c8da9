#include "obs/hub.hpp"

namespace bwpart::obs {

void Hub::write_metrics_json(std::ostream& os) const {
  // Schema-1 readers expect "obs_compiled_in"; every build compiles the
  // hooks in, so it is always true.
  os << "{\"schema\":1,\"obs_compiled_in\":true,\"metrics\":";
  registry_.write_json(os);
  os << ",\"epochs\":";
  series_.write_json(os);
  os << "}\n";
}

}  // namespace bwpart::obs
