// rpqres — gadgets/thm61: the proof of Theorem 6.1 as an executable
// pipeline.
//
// Given a finite language whose infix-free sublanguage contains a word
// with a repeated letter, this walks the proof's case analysis and builds
// the corresponding hardness gadget:
//   * four-legged (Claims 6.5/6.8/6.9/6.12 exits) → Thm 5.3 Case 1/2;
//   * maximal-gap word aγaδ with no infix of γaγ in L → Lem 6.6
//     (Figs 7/8, or the generalized Fig 11 shape when γ = ε ≠ δ);
//   * overlapping case → aaa (Claim 6.11) or aba/bab (Claim 6.10);
//   * non-overlapping case → aab (Claim 6.14) or the Fig 12 construction
//     (Claim 6.13).
// Figs 6 and 12 are reconstructions: the paper text does not fix their
// wiring. Where the proof needs one of them and no candidate verifies
// (Claim 6.13 for axya|yax; Thm 5.3 Case 2 with unary legs, as in aaaa),
// the pipeline returns NotFound.
// The pipeline may switch to the mirror language (Prp 6.3); the result
// records which. The returned gadget is verified by construction in the
// tests via VerifyGadget.

#ifndef RPQRES_GADGETS_THM61_H_
#define RPQRES_GADGETS_THM61_H_

#include <string>

#include "gadgets/gadget.h"
#include "lang/language.h"
#include "util/status.h"

namespace rpqres {

/// Outcome of the Theorem 6.1 construction.
struct Thm61Gadget {
  PreGadget gadget;
  /// The gadget is for the *mirror* language; hardness transfers by
  /// Prp 6.3 (and verification must run against Mirror(IF(L))).
  bool mirrored = false;
  /// Which proof case produced the gadget (for reports).
  std::string proof_case;
};

/// Builds a hardness gadget for `lang` following Theorem 6.1's proof.
/// Requirements: IF(lang) finite, non-empty, ε-free, with a repeated
/// letter word. Errors: FailedPrecondition if the requirements fail,
/// NotFound when no candidate verifies (the Fig 6 and Fig 12 gaps). Past
/// 2^20 words the maximal-gap routes are skipped, and the NotFound message
/// logs their OutOfRange.
Result<Thm61Gadget> BuildThm61Gadget(const Language& lang);

}  // namespace rpqres

#endif  // RPQRES_GADGETS_THM61_H_
