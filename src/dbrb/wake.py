"""Wake bits: one per quorum wait of the engine, in the order it runs them.

The protocol's pseudo-blocking "wait until ..." guards are scan methods
on `Node`.  A handler that writes state a scan reads calls
`Node._wake` with that scan's bit; `Node._repoll` then runs only the
scans whose bits are set.  The masks below the bits name the state that
several scans read, so each write site wakes all of its readers.
"""

RM_PENDING = 1 << 0         # _rm_pending_scan
PENDING_COMMIT = 1 << 1     # _pending_commit_scan
PENDING_STORE = 1 << 2      # _pending_store_scan
PROPOSE_BUFFER = 1 << 3     # _propose_buffer_scan
PROPOSE_QUORUM = 1 << 4     # _propose_quorum_scan
CONVERGED_QUORUM = 1 << 5   # _converged_quorum_scan
PENDING_INSTALL = 1 << 6    # _pending_install_scan
MAYBE_PROPOSE = 1 << 7      # _maybe_propose
CERT = 1 << 8               # _cert_scan
DELIVER = 1 << 9            # _deliver_scan
CONFIRM = 1 << 10           # _confirm_scan
JOIN = 1 << 11              # _join_kick
LEAVE = 1 << 12             # _leave_kick
LEAVER_LOOP = 1 << 13       # _leaver_loop_kick
GOSSIP = 1 << 14            # _gossip_kick

ALL = (1 << 15) - 1

# Readers of `trusted_aux` (through `_is_valid_view`).
TRUSTED_AUX = PENDING_COMMIT | PENDING_STORE | CERT | DELIVER
# Readers of `trusted_hist`: the valid-view checks, `_is_trusted` and `_best_view`.
TRUSTED_HIST = TRUSTED_AUX | RM_PENDING | JOIN | LEAVER_LOOP | GOSSIP
# Readers of `cv`.
CV = PENDING_COMMIT | PENDING_INSTALL | MAYBE_PROPOSE | LEAVER_LOOP
# Readers of `phase`, which only `MembershipMixin._set_phase` writes.
PHASE = CONFIRM | JOIN | LEAVE | LEAVER_LOOP | GOSSIP
# Readers of `delivered`, which also lets a node leave (the paper's can_leave).
CAN_LEAVE = LEAVE | LEAVER_LOOP
