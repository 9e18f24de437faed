// Parametric PEPA model families, built programmatically so validation
// suites and benchmarks can sweep population sizes without hand-written
// model files.
//
//   client_server(N) — the paper's Tomcat scenario reduced to its scaling
//     core: N identical clients cycling request/response against a pool of
//     servers, cooperating on {request, response}.  Clients are active on
//     request and passive on response; servers the other way round.
//
//   pda_handover(N) — the PDA scenario's capacity question: N PDAs that
//     detect a boundary and then wait (passively) for one of M transmitters
//     to perform the handover; transmitters cool down before the next one.
//
//   ring(N) — a chain of N two-state stations driven by an always-on hub:
//     station i can only switch on while its predecessor is on (a passive
//     enabling cooperation), and switches off freely.  The reachable space
//     is exponential in N with genuine synchronisation, which makes it the
//     honest sweep family for state-space benchmarks.
#pragma once

#include <cstddef>

#include "pepa/model.hpp"

namespace choreo::pepa {

struct ClientServerParams {
  double request_rate = 1.5;
  double response_rate = 2.0;
  /// Number of replicated servers cooperating with the client population.
  std::size_t servers = 1;
};

/// N clients vs a server pool: (Client || ... || Client)
/// <request, response> (Server || ... || Server).
Model client_server(std::size_t clients, const ClientServerParams& params = {});

struct PdaHandoverParams {
  double detect_rate = 1.0;
  double handover_rate = 4.0;
  double reset_rate = 2.0;
  /// Number of transmitters serving handovers.
  std::size_t transmitters = 2;
};

/// N PDAs vs M transmitters: (Pda || ...) <handover> (Transmitter || ...).
Model pda_handover(std::size_t pdas, const PdaHandoverParams& params = {});

struct RingParams {
  double on_rate = 1.0;
  double off_rate = 0.8;
};

/// Hub-driven chain of N stations; distinct per-station action types, so
/// the state space is an exponential reachable subset of 2^N.
Model ring(std::size_t stations, const RingParams& params = {});

/// Exact reachable-state counts of the families above, in closed form, so
/// benchmark sweeps can be sized honestly (pick parameters that really
/// reach 10^5 or 10^6 states) and the derived counts verified against the
/// formula rather than eyeballed.
///
/// client_server: request and response are both in the cooperation set, so
/// the number of waiting clients always equals the number of busy servers —
/// with distinguishable replicas that leaves sum_k C(N,k)·C(S,k) = C(N+S,N)
/// reachable states.  pda_handover: detect and reset are individual
/// actions, so every of the 2^(pdas+transmitters) component combinations is
/// reachable.  ring: stations switch on in chain order but off freely, so
/// all 2^stations configurations are eventually reachable.
std::size_t client_server_states(std::size_t clients, std::size_t servers);
std::size_t pda_handover_states(std::size_t pdas, std::size_t transmitters);
std::size_t ring_states(std::size_t stations);

/// Block counts of the strong-equivalence (population-vector) quotients the
/// quotient-direct derivation (DeriveOptions::aggregate) explores, in closed
/// form.  Replicated siblings are indistinguishable there, so a state is a
/// population vector rather than an interleaving:
///
/// client_server: waiting clients always equal busy servers, so the only
/// degree of freedom is that shared count — min(clients, servers) + 1
/// states, versus C(clients+servers, clients) for the full chain.
/// pda_handover: (searching PDAs, cooling transmitters) counts —
/// (pdas + 1) * (transmitters + 1) states versus 2^(pdas+transmitters).
/// ring: stations carry distinct per-station action types, so nothing is
/// exchangeable and the quotient equals the full space (the honest
/// no-collapse control; ring_states covers it).
std::size_t client_server_quotient_states(std::size_t clients,
                                          std::size_t servers);
std::size_t pda_handover_quotient_states(std::size_t pdas,
                                         std::size_t transmitters);

}  // namespace choreo::pepa
