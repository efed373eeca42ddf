// Power trace container.
//
// A trace is one power sample per clock cycle (the paper samples at
// 500 MS/s with the core at 120 MHz and averages; one sample per cycle is
// the information-preserving equivalent for a simulated target).  The
// synthesizer averages the executions of one acquisition itself
// (synthesize_averaged); campaigns stream traces into analysis passes and
// the chunked trace store (power/trace_io.h) rather than into a matrix.
#ifndef USCA_POWER_TRACE_H
#define USCA_POWER_TRACE_H

#include <vector>

namespace usca::power {

using trace = std::vector<double>;

} // namespace usca::power

#endif // USCA_POWER_TRACE_H
