package server

import (
	"fmt"
	"sort"

	"hputune/internal/campaign"
	"hputune/internal/pricing"
	"hputune/internal/spec"
	"hputune/internal/store"
)

// storeJournal adapts campaign lifecycle events to store appends.
// Append errors are sticky inside the store and surfaced through its
// OnError hook; campaigns keep running in memory either way —
// durability degrades, the live loop does not.
type storeJournal struct{ st *store.Store }

func (j storeJournal) Round(id string, snap campaign.RoundSnapshot, chk campaign.Checkpoint) {
	_ = j.st.AppendRound(id, snap, chk)
}

func (j storeJournal) Finished(id string, chk campaign.Checkpoint) {
	_ = j.st.AppendFinished(id, chk)
}

func (j storeJournal) Evicted(id string, chk campaign.Checkpoint, rounds []campaign.RoundSnapshot) {
	// The final checkpoint and history are already durable from the
	// campaign's own records; archiving re-labels them as evicted.
	_ = j.st.AppendArchive(id)
}

// Recover builds a server whose durable state lives in st: the ingest
// aggregates, published fit, campaigns and manager counters recorded
// there are restored; unfinished campaigns resume immediately from
// their last completed round — the continuation is bit-identical to an
// uninterrupted run, because round seeds derive only from each
// campaign's config seed and the solvers, simulator and fit are
// deterministic — and every subsequent ingest, fit and campaign event
// is journaled back to st. On graceful shutdown the server suspends
// campaigns instead of canceling them, so the next Recover picks them
// back up; a crash (SIGKILL) just loses the rounds that had not been
// journaled yet, which the resumed run re-executes identically.
func Recover(cfg Config, st *store.Store) (*Server, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	state, err := st.State()
	if err != nil {
		return nil, err
	}
	// Ingest state: state is our private deep copy.
	s.belief = state.Aggs
	s.records.Store(state.Records)
	if state.Fit != nil {
		s.fit.Store(state.Fit)
	}

	s.campaigns.SetJournal(storeJournal{st: st})
	s.campaigns.RestoreCounters(state.Started, state.Finished, state.Canceled, state.EvictedRounds, state.NextID)
	parsed := make(map[int][]campaign.Config)
	for _, id := range sortedCampaignIDs(state.Campaigns) {
		cs := state.Campaigns[id]
		cfgs, ok := parsed[cs.Fleet]
		if !ok {
			if cs.Fleet < 0 || cs.Fleet >= len(state.Fleets) {
				return nil, fmt.Errorf("server: recover campaign %s: fleet %d out of range (%d fleets)", id, cs.Fleet, len(state.Fleets))
			}
			fl := state.Fleets[cs.Fleet]
			opts := spec.BuildOpts{}
			if fl.Fitted != nil {
				opts.Fitted = pricing.Linear{K: fl.Fitted.K, B: fl.Fitted.B}
			}
			cfgs, err = spec.ParseCampaigns(fl.Spec, opts)
			if err != nil {
				return nil, fmt.Errorf("server: recover fleet %d: %w", cs.Fleet, err)
			}
			parsed[cs.Fleet] = cfgs
		}
		if cs.Index < 0 || cs.Index >= len(cfgs) {
			return nil, fmt.Errorf("server: recover campaign %s: index %d out of range (fleet of %d)", id, cs.Index, len(cfgs))
		}
		c, err := campaign.New(s.est, cfgs[cs.Index])
		if err != nil {
			return nil, fmt.Errorf("server: recover campaign %s: %w", id, err)
		}
		if err := c.Restore(cs.Checkpoint, cs.Rounds); err != nil {
			return nil, fmt.Errorf("server: recover campaign %s: %w", id, err)
		}
		if err := s.campaigns.Resume(id, c); err != nil {
			return nil, fmt.Errorf("server: recover campaign %s: %w", id, err)
		}
	}
	s.st = st
	return s, nil
}

// sortedCampaignIDs orders ids by their numeric suffix (c2 before c10)
// so recovery resumes campaigns deterministically in start order.
func sortedCampaignIDs(campaigns map[string]*store.CampaignState) []string {
	ids := make([]string, 0, len(campaigns))
	for id := range campaigns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ni, oki := campaign.ParseCampaignID(ids[i])
		nj, okj := campaign.ParseCampaignID(ids[j])
		if oki && okj && ni != nj {
			return ni < nj
		}
		if oki != okj {
			return oki
		}
		return ids[i] < ids[j]
	})
	return ids
}
