/**
 * @file
 * Thread-safe, single-flight memoization of uniprocessor baseline
 * times. Callers share one cache object and the cache itself
 * guarantees that each key's baseline is simulated exactly once, even
 * when many study workers request it concurrently; a key left empty
 * is never cached (see apps::SingleFlight).
 */

#ifndef CCNUMA_CORE_SEQ_CACHE_HH
#define CCNUMA_CORE_SEQ_CACHE_HH

#include "apps/single_flight.hh"
#include "sim/types.hh"

namespace ccnuma::core {

using SeqBaselineCache = apps::SingleFlight<sim::Cycles>;

} // namespace ccnuma::core

#endif // CCNUMA_CORE_SEQ_CACHE_HH
