// Switch costing for the tx-capacity rule: one invocation runs one arm,
// so a switch costs its most expensive arm, and an arm without a break
// is charged together with the arm it falls into. Produces no findings;
// LintCapacity.SwitchCostsItsWorstArm pins the bounds through
// --capacity-report.
#include "support/Annotations.h"

#include <cstdint>

struct TxnContext {
  CRAFTY_TX_STORE_API void store(uint64_t *Addr, uint64_t Val);
};

enum Kind { One, Three, Two, Also };

// Arms of 1 and 3 stores (the second a braced block ending in its
// break): the switch costs 3, not 4.
CRAFTY_TX_BODY void txTwoArms(TxnContext &Tx, uint64_t *A, Kind K) {
  switch (K) {
  case One:
    Tx.store(A, 1);
    break;
  case Three: {
    Tx.store(A, 1);
    Tx.store(A + 1, 2);
    Tx.store(A + 2, 3);
    break;
  }
  default:
    break;
  }
}

// `Two` falls through into `Also`: 2 + 2 = 4 stores, more than the
// 3-store arm, and less than the 7 all arms would sum to.
CRAFTY_TX_BODY void txFallThrough(TxnContext &Tx, uint64_t *A, Kind K) {
  switch (K) {
  case Three:
    Tx.store(A, 1);
    Tx.store(A + 1, 2);
    Tx.store(A + 2, 3);
    break;
  case Two:
    Tx.store(A, 1);
    Tx.store(A + 1, 2);
    [[fallthrough]];
  case Also:
    Tx.store(A + 2, 3);
    Tx.store(A + 3, 4);
    break;
  default:
    break;
  }
}
