#include "gadgets/thm61.h"

#include "gadgets/paper_gadgets.h"
#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/repeated_letter.h"
#include "util/check.h"

namespace rpqres {
namespace {

// Verifies `gadget` against `target` (already mirrored if needed); on
// success fills `out` and returns true, else appends to `log`.
bool TryCandidate(const Language& target, PreGadget gadget, bool mirrored,
                  const std::string& proof_case, Thm61Gadget* out,
                  std::string* log) {
  Result<GadgetVerification> v = VerifyGadget(target, gadget);
  if (v.ok() && v->valid) {
    out->gadget = std::move(gadget);
    out->mirrored = mirrored;
    out->proof_case = proof_case;
    return true;
  }
  *log += "\n  [" + proof_case + "] " +
          (v.ok() ? v->reason : v.status().ToString());
  return false;
}

// The maximal-gap analysis for one orientation (ifl is L or its mirror).
// Follows the proof of Thm 6.1 after the reduction to β = ε, but treats
// the proof's case-excluding claims as *routing conditions* (verified
// candidates) rather than assertions — the four-legged exits are tried by
// the caller, so this function may legitimately fall through.
bool TryMaximalGapRoutes(const Language& ifl, bool mirrored,
                         Thm61Gadget* out, std::string* log) {
  Result<std::optional<RepeatedLetterWord>> found = FindMaximalGapWord(ifl);
  if (!found.ok()) {
    *log += std::string("\n  [maximal-gap word") +
            (mirrored ? ", mirrored" : "") + "] " + found.status().ToString();
    return false;
  }
  const std::optional<RepeatedLetterWord>& word = *found;
  if (!word || !word->beta().empty()) return false;  // wrong orientation
  const char a = word->letter;
  const std::string gamma = word->gamma();
  const std::string delta = word->delta();

  // Lemma 6.6: no infix of γaγ in L → Figs 7/8 (or generalized Fig 11).
  if (!SomeInfixInLanguage(ifl, gamma + a + gamma)) {
    std::string proof_case =
        delta.empty() ? "Lem 6.6, δ = ε (Fig 7)"
        : gamma.empty() ? "Lem 6.6, γ = ε (generalized Fig 11)"
                        : "Lem 6.6, δ ≠ ε (Fig 8)";
    return TryCandidate(ifl, RepeatedLetterGadget(a, gamma, delta),
                        mirrored, proof_case, out, log);
  }
  if (!delta.empty()) return false;  // Claim 6.8 territory: four-legged

  // Claim 6.7: find a straddling infix γ1·a·γ2 ∈ L of γaγ.
  std::string gag = gamma + a + gamma;
  size_t middle = gamma.size();
  for (size_t start = 0; start <= middle; ++start) {
    for (size_t end = middle + 1; end <= gag.size(); ++end) {
      std::string candidate = gag.substr(start, end - start);
      if (!ifl.Contains(candidate)) continue;
      std::string gamma1 = gag.substr(start, middle - start);
      std::string gamma2 = gag.substr(middle + 1, end - middle - 1);
      if (gamma1.empty() || gamma2.empty()) continue;

      if (gamma1.size() + gamma2.size() > gamma.size()) {
        // Overlapping case; Claims 6.9 + maximal-gap confine the clean
        // situation to γ1 = γ2 = γ of length 1 (otherwise four-legged).
        if (gamma1 != gamma || gamma2 != gamma || gamma.size() != 1) {
          continue;
        }
        char b = gamma[0];
        if (b == a) {
          if (TryCandidate(ifl, AaaGadget(a), mirrored,
                           "overlapping, aaa (Claim 6.11 / Fig 10)", out,
                           log)) {
            return true;
          }
        } else if (TryCandidate(ifl, AbaBabGadget(a, b), mirrored,
                                "overlapping, aba+bab (Claim 6.10 / Fig 9)",
                                out, log)) {
          return true;
        }
        continue;
      }

      // Non-overlapping case; Claim 6.12 confines the clean situation to
      // |γ1| = |γ2| = 1 (otherwise four-legged).
      if (gamma1.size() != 1 || gamma2.size() != 1) continue;
      char x = gamma2[0];  // first letter of γ
      char y = gamma1[0];  // last letter of γ
      std::string eta = gamma.substr(1, gamma.size() - 2);
      if (y == a) {
        // y·a·x = a·a·x ∈ L: Claim 6.14 (x ≠ a) / Claim 6.11 (x = a).
        PreGadget gadget = x == a ? AaaGadget(a) : AabGadget(a, x);
        if (TryCandidate(ifl, std::move(gadget), mirrored,
                         x == a ? "non-overlap, aaa (Claim 6.11)"
                                : "non-overlap, aab (Claim 6.14 / Fig 11)",
                         out, log)) {
          return true;
        }
        continue;
      }
      if (x == a) {
        // Mirror once more: L^R contains a·a·y with y ≠ a (Claim 6.14).
        if (TryCandidate(ifl.Mirror(), AabGadget(a, y), !mirrored,
                         "non-overlap, mirrored aab (Claim 6.14 / Fig 11)",
                         out, log)) {
          return true;
        }
        continue;
      }
      // x, y ≠ a: Claim 6.13 / Fig 12 — reconstruction candidates.
      for (PreGadget& candidate : AxEtaYaCandidates(a, x, eta, y)) {
        if (TryCandidate(ifl, std::move(candidate), mirrored,
                         "non-overlap, a·x·η·y·a (Claim 6.13 / Fig 12)",
                         out, log)) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

Result<Thm61Gadget> BuildThm61Gadget(const Language& lang) {
  Language ifl = InfixFreeSublanguage(lang);
  if (!ifl.IsFinite()) {
    return Status::FailedPrecondition(
        "Thm 6.1 requires a finite language");
  }
  if (ifl.IsEmpty() || ifl.ContainsEpsilon()) {
    return Status::FailedPrecondition(
        "Thm 6.1 requires a non-trivial language");
  }
  if (!HasRepeatedLetterWord(ifl)) {
    return Status::FailedPrecondition(
        "Thm 6.1 requires a word with a repeated letter");
  }

  Thm61Gadget out;
  std::string log;
  Language mirror = ifl.Mirror();

  // Route 1: the maximal-gap analysis (Lem 6.6 and the overlap /
  // non-overlap subcases), in whichever orientation has β = ε.
  if (TryMaximalGapRoutes(ifl, /*mirrored=*/false, &out, &log)) return out;
  if (TryMaximalGapRoutes(mirror, /*mirrored=*/true, &out, &log)) {
    return out;
  }

  // Route 2: four-legged exits (Thm 5.3) — the proof's Claims 6.5, 6.8,
  // 6.9 and 6.12 all land here. Stabilize the legs (Lem 5.5) and pick
  // Case 1 / Case 2; try the mirror as well (Prp 6.3).
  for (bool mirrored : {false, true}) {
    const Language& target = mirrored ? mirror : ifl;
    std::optional<FourLeggedWitness> witness =
        FindFourLeggedWitness(target);
    if (!witness) continue;
    FourLeggedWitness stable = MakeStableLegs(target, *witness);
    std::string gxb = stable.gamma + stable.body + stable.beta;
    if (!SomeInfixInLanguage(target, gxb)) {
      if (TryCandidate(target, FourLeggedCase1Gadget(stable), mirrored,
                       "four-legged, Case 1 (Fig 5)", &out, &log)) {
        return out;
      }
    } else {
      for (PreGadget& candidate : FourLeggedCase2Candidates(stable)) {
        if (TryCandidate(target, std::move(candidate), mirrored,
                         "four-legged, Case 2 (Fig 6)", &out, &log)) {
          return out;
        }
      }
    }
  }

  return Status::NotFound(
      "Thm 6.1 pipeline: no candidate gadget verified for IF(" +
      lang.description() + ") (the paper text does not fix the wiring of "
      "Figs 6 and 12, and no reconstruction of them verified):" + log);
}

}  // namespace rpqres
