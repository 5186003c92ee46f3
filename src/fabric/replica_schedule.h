// ReplicaSchedule: deterministic low-collision reader→replica assignment
// for hot chunks striped across R fabric nodes.
//
// Problem: a popular system prompt's chunks live on R replicas; if every
// concurrent reader picked replica (chunk mod R) they would all converge on
// the same node and the stripe buys nothing. Randomizing fixes the skew but
// breaks the fabric's bit-identical-replay contract.
//
// Construction (CRT-sequence / hopping-pattern style — see PAPERS.md): each
// reader k derives a linear schedule over the replica index ring,
//
//   choice(k, j) = (offset_k + j * step_k) mod R,   gcd(step_k, R) == 1
//
// where slot j is the fetched chunk's index in its context (CacheFabric
// passes the chunk index, so a chunk read twice by one reader hits the same
// replica). Every schedule is a permutation walk of all R replicas (step
// coprime to R), so one reader's consecutive chunks spread across the whole
// stripe; and — the CRT property — two readers with distinct (offset, step)
// parameters collide on at most ONE slot per R consecutive slots when R is
// prime (test_fabric checks this against brute force). Offsets and steps
// come from seeded hashes of the reader id, so the whole assignment is a
// pure function of (reader, slot, R).
#pragma once

#include <cstdint>

namespace cachegen {

// Replica index in [0, num_replicas) for reader `reader`'s fetch of slot
// `slot` (the chunk index).
// num_replicas == 0 is invalid; 1 always returns 0.
uint32_t ReplicaChoice(uint64_t reader, uint64_t slot, uint32_t num_replicas);

// The schedule parameters behind ReplicaChoice (exposed for tests).
struct ReplicaScheduleParams {
  uint32_t offset = 0;
  uint32_t step = 1;  // coprime to num_replicas
};
ReplicaScheduleParams ReplicaScheduleFor(uint64_t reader,
                                         uint32_t num_replicas);

}  // namespace cachegen
