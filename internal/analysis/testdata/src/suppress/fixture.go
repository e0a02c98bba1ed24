// Package suppress exercises the //edenvet:ignore machinery: a
// reasoned suppression absorbs its finding, a suppression that matches
// nothing is stale, and a directive without a reason is malformed.
package suppress

import "eden/internal/edenid"

// Handle can act on an object.
type Handle struct{}

// Close releases the handle.
func (h *Handle) Close() {}

// Leak deliberately violates capleak; the directive below absorbs it.
//
//edenvet:ignore capleak fixture demonstrates a reviewed exception
func Leak(id edenid.ID) *Handle { _ = id; return nil }

// fine has nothing to suppress, so its directive is stale.
//
//edenvet:ignore timeoutprop this matches nothing and must be reported stale
func fine() {}

//edenvet:ignore
func malformed() {}
