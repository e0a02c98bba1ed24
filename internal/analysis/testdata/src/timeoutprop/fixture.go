// Package timeoutprop exercises the timeoutprop analyzer: an Invoke
// whose options carry no visible timeout fires; a bounded literal or a
// propagated options value does not.
package timeoutprop

import "time"

// InvokeOptions tunes one invocation.
type InvokeOptions struct {
	Timeout      time.Duration
	AllowReplica bool
}

// Kernel is a stand-in for the invocation API.
type Kernel struct{}

// Pending is a stand-in async completion handle.
type Pending struct{}

// Invoke performs one invocation.
func (k *Kernel) Invoke(op string, data []byte, opts *InvokeOptions) error {
	_, _, _ = op, data, opts
	return nil
}

// InvokeAsync starts one invocation without waiting for it.
func (k *Kernel) InvokeAsync(op string, data []byte, opts *InvokeOptions) *Pending {
	_, _, _ = op, data, opts
	return &Pending{}
}

func calls(k *Kernel, caller *InvokeOptions) {
	_ = k.Invoke("a", nil, nil)                                  // want "passes nil options"
	_ = k.Invoke("b", nil, &InvokeOptions{AllowReplica: true})   // want "omit Timeout"
	_ = k.Invoke("c", nil, &InvokeOptions{Timeout: 0})           // want "hardcodes Timeout: 0"
	_ = k.Invoke("d", nil, &InvokeOptions{Timeout: time.Second}) // bounded: ok
	_ = k.Invoke("e", nil, caller)                               // propagated: ok
}

// Async submissions fix their deadline at submission time, and that
// deadline also bounds the wait in the target's queues — so an
// invisible budget is at least as bad as on a synchronous call.
func asyncCalls(k *Kernel, caller *InvokeOptions) {
	_ = k.InvokeAsync("a", nil, nil)                                  // want "passes nil options"
	_ = k.InvokeAsync("b", nil, &InvokeOptions{AllowReplica: true})   // want "omit Timeout"
	_ = k.InvokeAsync("c", nil, &InvokeOptions{Timeout: 0})           // want "hardcodes Timeout: 0"
	_ = k.InvokeAsync("d", nil, &InvokeOptions{Timeout: time.Second}) // bounded: ok
	_ = k.InvokeAsync("e", nil, caller)                               // propagated: ok
}
