package store

import (
	"time"

	"eden/internal/edenid"
	"eden/internal/telemetry"
)

// Metric names reported by an instrumented store.
const (
	metricPutLat   = "store.put.latency"
	metricGetLat   = "store.get.latency"
	metricPutBytes = "store.put.bytes"
	metricPuts     = "store.puts"
	metricGets     = "store.gets"
	metricErrors   = "store.errors"
)

// instrumented decorates a Store with latency histograms and
// operation counters. It adds one clock read and a few atomic adds
// per operation — negligible next to the encode/IO a Put does.
type instrumented struct {
	s        Store
	putLat   *telemetry.Histogram
	getLat   *telemetry.Histogram
	putBytes *telemetry.Counter
	puts     *telemetry.Counter
	gets     *telemetry.Counter
	errs     *telemetry.Counter
}

var _ Store = (*instrumented)(nil)

// Instrument wraps s so every operation reports latency and volume
// into reg. A nil registry (telemetry disabled) or nil store returns
// s unchanged.
func Instrument(s Store, reg *telemetry.Registry) Store {
	if s == nil || reg == nil {
		return s
	}
	return &instrumented{
		s:        s,
		putLat:   reg.Histogram(metricPutLat),
		getLat:   reg.Histogram(metricGetLat),
		putBytes: reg.Counter(metricPutBytes),
		puts:     reg.Counter(metricPuts),
		gets:     reg.Counter(metricGets),
		errs:     reg.Counter(metricErrors),
	}
}

// Put implements Store.
func (i *instrumented) Put(rec Record) error {
	start := time.Now()
	err := i.s.Put(rec)
	i.putLat.Observe(time.Since(start))
	i.puts.Inc()
	if err != nil {
		i.errs.Inc()
		return err
	}
	i.putBytes.Add(int64(len(rec.Rep)))
	return nil
}

// Get implements Store.
func (i *instrumented) Get(id edenid.ID) (Record, error) {
	start := time.Now()
	rec, err := i.s.Get(id)
	i.getLat.Observe(time.Since(start))
	i.gets.Inc()
	if err != nil {
		i.errs.Inc()
	}
	return rec, err
}

// Stat implements Store. It is a question about the store, not traffic
// to the medium, so it is neither timed nor counted as a get.
func (i *instrumented) Stat(id edenid.ID) (Meta, bool) { return i.s.Stat(id) }

// Delete implements Store.
func (i *instrumented) Delete(id edenid.ID) error {
	err := i.s.Delete(id)
	if err != nil {
		i.errs.Inc()
	}
	return err
}

// List implements Store.
func (i *instrumented) List() ([]edenid.ID, error) {
	ids, err := i.s.List()
	if err != nil {
		i.errs.Inc()
	}
	return ids, err
}

// PutIntent implements Store. Intent writes ride the put metrics: they
// are the same durable-write path, just a different record kind.
func (i *instrumented) PutIntent(it MoveIntent) error {
	start := time.Now()
	err := i.s.PutIntent(it)
	i.putLat.Observe(time.Since(start))
	i.puts.Inc()
	if err != nil {
		i.errs.Inc()
	}
	return err
}

// DeleteIntent implements Store.
func (i *instrumented) DeleteIntent(id edenid.ID) error {
	err := i.s.DeleteIntent(id)
	if err != nil {
		i.errs.Inc()
	}
	return err
}

// ListIntents implements Store.
func (i *instrumented) ListIntents() ([]MoveIntent, error) {
	its, err := i.s.ListIntents()
	if err != nil {
		i.errs.Inc()
	}
	return its, err
}
