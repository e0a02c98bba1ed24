package kernel

import (
	"errors"
	"time"

	"eden/internal/telemetry"
)

// kernelTel is the kernel's telemetry surface, resolved once at
// construction so hot paths touch only instrument pointers — never a
// registry map. With telemetry disabled (nil registry) every field is
// nil and every call a nil-receiver no-op, keeping the invoke fast
// path allocation- and regression-free. What Stats, the locator's Stats
// and levels count has no instrument: the registry reads those books.
type kernelTel struct {
	reg      *telemetry.Registry
	unreport func()

	rightsDenied *telemetry.Counter // rights checks that rejected a call
	timeouts     *telemetry.Counter // invocations that expired at the invoker

	localLat    *telemetry.Histogram // user-level latency, locally served
	remoteLat   *telemetry.Histogram // user-level latency, served remotely
	dispatchLat *telemetry.Histogram // submission to an object through handler reply
	ckptLat     *telemetry.Histogram // checkpoint write (policy-wide)
	portWait    *telemetry.Histogram // Port.Receive wait

	admissionShed  *telemetry.Counter // calls shed by admission before executing
	admissionDepth *telemetry.Gauge   // calls waiting in an object's class queues
	queueFull      *telemetry.Counter // calls shed because a per-object queue hit its cap
	serveConc      *telemetry.Gauge   // invocation processes currently executing

	asyncShed      *telemetry.Counter   // async submissions shed at the in-flight cap
	asyncQueueWait *telemetry.Histogram // hand-off from submission to processor

	replicaHit        *telemetry.Counter   // reads served from a checkpoint shadow
	replicaMiss       *telemetry.Counter   // stale-tolerant reads this checksite could not serve
	replicaStale      *telemetry.Counter   // refusals because the record sat below the invalidation floor
	replicaInvalidate *telemetry.Counter   // invalidation frames processed
	replicaReadLat    *telemetry.Histogram // dispatch latency of shadow-served reads
}

// Metric names, also documented in the README's Observability section.
const (
	metricRightsDenied    = "kernel.invoke.rights_denied"
	metricInvokeTimeouts  = "kernel.invoke.timeouts"
	metricInvokeLocalLat  = "kernel.invoke.local.latency"
	metricInvokeRemoteLat = "kernel.invoke.remote.latency"
	metricDispatchLat     = "kernel.dispatch.latency"
	metricCheckpointLat   = "kernel.checkpoint.latency"
	metricPortWait        = "kernel.sync.port.wait"
	metricAdmissionShed   = "kernel.admission.shed"
	metricAdmissionDepth  = "kernel.admission.queue.depth"
	metricQueueFull       = "kernel.admission.queue.full"
	metricServeConc       = "kernel.serve.concurrency"

	metricAsyncShed = "kernel.async.shed"
	metricAsyncWait = "kernel.async.queue.wait"

	metricReplicaHit        = "kernel.replica.hit"
	metricReplicaMiss       = "kernel.replica.miss"
	metricReplicaStale      = "kernel.replica.stale_serve"
	metricReplicaInvalidate = "kernel.replica.invalidate"
	metricReplicaReadLat    = "kernel.replica.read.latency"
)

func newKernelTel(reg *telemetry.Registry) kernelTel {
	// A nil registry hands back nil instruments; both are safe to use.
	return kernelTel{
		reg:          reg,
		rightsDenied: reg.Counter(metricRightsDenied),
		timeouts:     reg.Counter(metricInvokeTimeouts),
		localLat:     reg.Histogram(metricInvokeLocalLat),
		remoteLat:    reg.Histogram(metricInvokeRemoteLat),
		dispatchLat:  reg.Histogram(metricDispatchLat),
		ckptLat:      reg.Histogram(metricCheckpointLat),
		portWait:     reg.Histogram(metricPortWait),

		admissionShed:  reg.Counter(metricAdmissionShed),
		admissionDepth: reg.Gauge(metricAdmissionDepth),
		queueFull:      reg.Counter(metricQueueFull),
		serveConc:      reg.Gauge(metricServeConc),

		asyncShed:      reg.Counter(metricAsyncShed),
		asyncQueueWait: reg.Histogram(metricAsyncWait),

		replicaHit:        reg.Counter(metricReplicaHit),
		replicaMiss:       reg.Counter(metricReplicaMiss),
		replicaStale:      reg.Counter(metricReplicaStale),
		replicaInvalidate: reg.Counter(metricReplicaInvalidate),
		replicaReadLat:    reg.Histogram(metricReplicaReadLat),
	}
}

// levels are the node's gauges, read from the books they describe, so
// that a registry several kernels share adds them up.
type levels struct {
	active  int   `metric:"kernel.objects.active,gauge"`
	memory  int64 `metric:"kernel.memory.bytes,gauge"`
	pending int32 `metric:"kernel.async.pending,gauge"`
}

func (k *Kernel) levels() levels {
	k.mu.Lock()
	defer k.mu.Unlock()
	return levels{len(k.active), k.memInUse, k.asyncInFlight.Load()}
}

// Telemetry returns the registry the kernel reports into, or nil when
// telemetry is disabled. Layers above the kernel (EFS, hosting code)
// register their own instruments through it.
func (k *Kernel) Telemetry() *telemetry.Registry { return k.tel.reg }

// now reads the clock only when telemetry is live. Paths whose start
// time feeds more than one histogram (so Histogram.Start does not fit)
// use this to keep the disabled fast path free of clock reads.
func (t *kernelTel) now() time.Time {
	if t.reg == nil {
		return time.Time{}
	}
	return time.Now()
}

// spanStatus maps an invocation outcome to a span status without
// allocating.
func spanStatus(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	default:
		return "error"
	}
}
