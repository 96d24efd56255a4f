package store

import (
	"encoding/json"
	"fmt"
	"math"

	"hputune/internal/campaign"
	"hputune/internal/inference"
)

// maxArchived bounds evicted-campaign finals kept in the state (oldest
// dropped first); it keeps snapshots from growing without bound on a
// process that churns through many campaigns.
const maxArchived = 1024

// FitRecord is one published trace-inferred linear rate model — enough
// to restore the serving layer's fit (and its /v1/stats description)
// exactly. It is the belief's own candidate type, journaled as is.
type FitRecord = inference.Candidate

// MergedFitRecord is one cluster-merged fit publication: the fit
// itself — restored on replay exactly like a locally inferred one —
// plus the per-node aggregate versions (each partition's durable WAL
// sequence) it was computed from, so an operator can audit which
// partition states fed a published model.
type MergedFitRecord struct {
	Fit FitRecord `json:"fit"`
	// Sources maps node name → the aggregate version (WAL sequence) the
	// merger pulled from that node when it computed this fit.
	Sources map[string]uint64 `json:"sources,omitempty"`
}

// FittedModel pins the linear model a fleet's "fitted" spec kind
// resolved against at start time, so recovery rebuilds the exact same
// campaign configs no matter what the live fit has since become.
type FittedModel struct {
	K float64 `json:"k"`
	B float64 `json:"b"`
}

// FleetRecord is one started campaign fleet. The verbatim spec document
// is the serializable form of the campaign configs — configs themselves
// hold rate-model interfaces — and recovery re-parses it (spec parsing
// is deterministic, including fleet presets, which expand from a seed).
type FleetRecord struct {
	Spec   json.RawMessage `json:"spec"`
	IDs    []string        `json:"ids"`
	Fitted *FittedModel    `json:"fitted,omitempty"`
}

// CampaignState is one live (running, suspended-by-crash, or finished
// but retained) campaign: where its config comes from, its latest
// resumable checkpoint, and the retained round-snapshot ring.
type CampaignState struct {
	Fleet      int                      `json:"fleet"` // index into State.Fleets
	Index      int                      `json:"index"` // index within the fleet's parsed configs
	Checkpoint campaign.Checkpoint      `json:"checkpoint"`
	Rounds     []campaign.RoundSnapshot `json:"rounds,omitempty"`
}

// ArchivedCampaign is a finished campaign exported at retention
// eviction: its final state and history survive here after the manager
// dropped its live copy.
type ArchivedCampaign struct {
	ID         string                   `json:"id"`
	Checkpoint campaign.Checkpoint      `json:"checkpoint"`
	Rounds     []campaign.RoundSnapshot `json:"rounds,omitempty"`
}

// State is the store's materialized view: the full durable state of one
// serving process as of a snapshot plus every applied WAL record. It is
// what snapshots serialize and what recovery hands the serving layer.
type State struct {
	// LastSeq is the sequence number of the last applied record; replay
	// skips WAL records at or below it (they predate the snapshot).
	LastSeq uint64 `json:"lastSeq"`

	// Ingest state: the O(#price levels) sufficient statistic of every
	// accepted trace record, the lifetime accepted-record count, and the
	// currently published fit (nil while none).
	Aggs    inference.Belief `json:"aggs,omitempty"`
	Records uint64           `json:"records,omitempty"`
	Fit     *FitRecord       `json:"fit,omitempty"`

	// Campaign state.
	Fleets    []FleetRecord             `json:"fleets,omitempty"`
	Campaigns map[string]*CampaignState `json:"campaigns,omitempty"`
	Archived  []ArchivedCampaign        `json:"archived,omitempty"`

	// NextID is the highest numeric campaign id ever assigned, so a
	// recovered manager never reuses an id.
	NextID uint64 `json:"nextID,omitempty"`
	// Manager lifetime counters, restored into /v1/stats.
	Started       uint64 `json:"started,omitempty"`
	Finished      uint64 `json:"finished,omitempty"`
	Canceled      uint64 `json:"canceled,omitempty"`
	EvictedRounds uint64 `json:"evictedRounds,omitempty"`
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Aggs:      make(inference.Belief),
		Campaigns: make(map[string]*CampaignState),
	}
}

// Payload shapes of the WAL record types.
type (
	ingestData struct {
		Deltas map[int]inference.PriceAggregate `json:"deltas"`
		Count  int                              `json:"count"`
	}
	roundData struct {
		ID         string                 `json:"id"`
		Snap       campaign.RoundSnapshot `json:"snap"`
		Checkpoint campaign.Checkpoint    `json:"checkpoint"`
	}
	finishedData struct {
		ID         string              `json:"id"`
		Checkpoint campaign.Checkpoint `json:"checkpoint"`
	}
	archiveData struct {
		ID string `json:"id"`
	}
)

// Apply folds one decoded record into the state. Errors are
// corruption-class: they mean the WAL and the state disagree (a gap in
// the sequence, a round for an unknown campaign, a non-finite
// aggregate) and recovery must refuse to proceed on the partial state.
func (st *State) Apply(rec Record) error {
	if rec.Seq != st.LastSeq+1 {
		return fmt.Errorf("store: record sequence %d after state at %d (gap or duplicate)", rec.Seq, st.LastSeq)
	}
	var err error
	switch rec.Type {
	case TypeIngest:
		err = st.applyIngest(rec.Data)
	case TypeFit:
		err = st.applyFit(rec.Data)
	case TypeMergedFit:
		err = st.applyMergedFit(rec.Data)
	case TypeFleet:
		err = st.applyFleet(rec.Data)
	case TypeRound:
		err = st.applyRound(rec.Data)
	case TypeFinished:
		err = st.applyFinished(rec.Data)
	case TypeArchive:
		err = st.applyArchive(rec.Data)
	default:
		err = fmt.Errorf("unknown record type %q", rec.Type)
	}
	if err != nil {
		return fmt.Errorf("store: apply %s record seq %d: %w", rec.Type, rec.Seq, err)
	}
	st.LastSeq = rec.Seq
	return nil
}

func (st *State) applyIngest(data json.RawMessage) error {
	var d ingestData
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	if d.Count < 0 {
		return fmt.Errorf("negative record count %d", d.Count)
	}
	// Merge is all-or-nothing: a rejected record leaves the state
	// untouched, never half-merged.
	if err := st.Aggs.Merge(d.Deltas); err != nil {
		return err
	}
	st.Records += uint64(d.Count)
	return nil
}

func (st *State) applyFit(data json.RawMessage) error {
	var f FitRecord
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	st.Fit = &f
	return nil
}

func (st *State) applyMergedFit(data json.RawMessage) error {
	var d MergedFitRecord
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	// The guard at publish time admitted only finite, contract-keeping
	// fits; a non-finite parameter here means the record did not come
	// through that path and must not become the served model.
	for _, v := range []float64{d.Fit.Slope, d.Fit.Intercept, d.Fit.R2, d.Fit.SE} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("merged fit parameter %v is not finite", v)
		}
	}
	st.Fit = &d.Fit
	return nil
}

func (st *State) applyFleet(data json.RawMessage) error {
	var f FleetRecord
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	if len(f.IDs) == 0 {
		return fmt.Errorf("fleet with no campaign ids")
	}
	if len(f.Spec) == 0 {
		return fmt.Errorf("fleet with no spec document")
	}
	for _, id := range f.IDs {
		if id == "" {
			return fmt.Errorf("fleet with an empty campaign id")
		}
		if _, dup := st.Campaigns[id]; dup {
			return fmt.Errorf("campaign id %q already exists", id)
		}
	}
	st.Fleets = append(st.Fleets, f)
	fleet := len(st.Fleets) - 1
	for i, id := range f.IDs {
		st.Campaigns[id] = &CampaignState{
			Fleet:      fleet,
			Index:      i,
			Checkpoint: campaign.Checkpoint{Status: campaign.StatusPending},
		}
		if n, ok := campaign.ParseCampaignID(id); ok && n > st.NextID {
			st.NextID = n
		}
	}
	st.Started += uint64(len(f.IDs))
	return nil
}

// settle updates the terminal-transition counters when a checkpoint
// moves a campaign from live to terminal.
func (st *State) settle(cs *CampaignState, chk campaign.Checkpoint) {
	if !cs.Checkpoint.Status.Terminal() && chk.Status.Terminal() {
		st.Finished++
		if chk.Status == campaign.StatusCanceled {
			st.Canceled++
		}
	}
}

func (st *State) applyRound(data json.RawMessage) error {
	var d roundData
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	cs, ok := st.Campaigns[d.ID]
	if !ok {
		return fmt.Errorf("round for unknown campaign %q", d.ID)
	}
	if d.Checkpoint.HistoryCap < 1 {
		return fmt.Errorf("campaign %q: checkpoint history cap %d below 1", d.ID, d.Checkpoint.HistoryCap)
	}
	if cs.Checkpoint.Status.Terminal() {
		return fmt.Errorf("round for already-terminal campaign %q", d.ID)
	}
	st.settle(cs, d.Checkpoint)
	cs.Checkpoint = d.Checkpoint
	cs.Rounds = append(cs.Rounds, d.Snap)
	if over := len(cs.Rounds) - d.Checkpoint.HistoryCap; over > 0 {
		cs.Rounds = append(cs.Rounds[:0], cs.Rounds[over:]...)
	}
	return nil
}

func (st *State) applyFinished(data json.RawMessage) error {
	var d finishedData
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	cs, ok := st.Campaigns[d.ID]
	if !ok {
		return fmt.Errorf("finish for unknown campaign %q", d.ID)
	}
	if !d.Checkpoint.Status.Terminal() {
		return fmt.Errorf("finish for campaign %q with non-terminal status %q", d.ID, d.Checkpoint.Status)
	}
	st.settle(cs, d.Checkpoint)
	cs.Checkpoint = d.Checkpoint
	return nil
}

func (st *State) applyArchive(data json.RawMessage) error {
	var d archiveData
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	cs, ok := st.Campaigns[d.ID]
	if !ok {
		return fmt.Errorf("archive of unknown campaign %q", d.ID)
	}
	if !cs.Checkpoint.Status.Terminal() {
		return fmt.Errorf("archive of non-terminal campaign %q (%s)", d.ID, cs.Checkpoint.Status)
	}
	st.Archived = append(st.Archived, ArchivedCampaign{
		ID: d.ID, Checkpoint: cs.Checkpoint, Rounds: cs.Rounds,
	})
	if over := len(st.Archived) - maxArchived; over > 0 {
		st.Archived = append(st.Archived[:0], st.Archived[over:]...)
	}
	st.EvictedRounds += uint64(cs.Checkpoint.RoundsRun)
	delete(st.Campaigns, d.ID)
	return nil
}

// pruneFleets drops fleet records no live campaign references and remaps
// the survivors' indices — snapshots stay proportional to live state,
// not to how many fleets the process ever started. Called by Compact.
func (st *State) pruneFleets() {
	if len(st.Fleets) == 0 {
		return
	}
	used := make(map[int]bool, len(st.Fleets))
	for _, cs := range st.Campaigns {
		used[cs.Fleet] = true
	}
	remap := make(map[int]int, len(used))
	kept := st.Fleets[:0]
	for i, f := range st.Fleets {
		if used[i] {
			remap[i] = len(kept)
			kept = append(kept, f)
		}
	}
	if len(kept) == len(st.Fleets) {
		return
	}
	st.Fleets = kept
	for _, cs := range st.Campaigns {
		cs.Fleet = remap[cs.Fleet]
	}
}

// clone deep-copies the state via a JSON round-trip (exact for the
// state's finite floats — Go marshals float64 at shortest-round-trip
// precision).
func (st *State) clone() (*State, error) {
	raw, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("store: clone state: %w", err)
	}
	out := NewState()
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, fmt.Errorf("store: clone state: %w", err)
	}
	return out, nil
}
