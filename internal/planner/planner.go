// Package planner implements the adaptive AUTO engine: a placement policy
// over the one incremental monitoring core (core.Incremental). It
// partitions the registered queries into spatial groups (fixed-depth
// quadrant cells of the network workspace, the same quadrant geometry the
// PMR quadtree uses) and gives each group whichever mode the paper's §6
// crossover predicts is cheaper — Direct (IMA) where queries are sparse,
// Grouped (GMA) where they cluster densely enough that shared
// monitoring-node maintenance amortizes. Placements are re-evaluated online
// and a group migrates at a tick boundary by flipping its members' mode
// inside the core: one network, one influence table and one route pass per
// tick whatever the split.
//
// Every input to a placement decision is a deterministic function of the
// replayed update stream: per-group query counts, distinct query-hosting
// edges, and windowed counts of object updates and query moves routed into
// each cell. No wall-clock, no sampling. Two planners fed the same stream
// therefore make identical decisions. Published results do not depend on
// placements at all — path costs are exact, so a query's k-NN row is the
// same in either mode — which is why a replica bootstrapped from a
// checkpoint can start from whatever modes its own first re-plan chose and
// still publish the primary's bytes.
//
// Everything but the policy is the core's: the planner holds no per-query
// state, applies no update and publishes nothing itself.
package planner

import (
	"cmp"
	"slices"
	"sync/atomic"

	"roadknn/internal/core"
	"roadknn/internal/graph"
	"roadknn/internal/roadnet"
)

const (
	defaultPlanEvery = 8
	// gridDepth is the quadtree-cell depth of the spatial grouping: queries
	// are grouped into the 4^gridDepth (64) fixed quadrant cells of the
	// network's workspace.
	gridDepth = 3
	// margin is the migration hysteresis: an in-step re-plan moves a group
	// only when the other mode's predicted cost is below margin times the
	// current one's.
	margin = 0.85
)

// Cost-model coefficients, in abstract work units per tick. They encode
// the paper's crossover shape rather than absolute costs. IMA pays per
// query for expansion-tree upkeep — growing with k and with the group's
// queries-per-edge, since overlapping trees each reprocess the same
// updates — plus per routed object update scaled by queries-per-edge (the
// influence-list hit rate) and per query move scaled by k (tree
// re-expansion, IMA's §6 weakness). GMA pays per monitoring endpoint
// (≈ distinct query-hosting edges) scaled by k, a smaller per-query
// evaluation share, and is nearly flat in query agility. With an empty
// stats window the comparison reduces to density: sparse non-overlapping
// groups stay on IMA, densely clustered ones go to GMA.
const (
	cImaPerQuery = 1.0
	cImaTree     = 0.04
	cImaPerObj   = 1.0
	cImaPerMove  = 1.0
	cGmaPerNode  = 0.5
	cGmaPerQuery = 0.45
	cGmaPerObj   = 0.5
	cGmaPerMove  = 0.2

	// minSharing is the GMA amortization floor, in queries per distinct
	// query-hosting edge. Below it a group cannot pay off shared
	// monitoring-node maintenance no matter what the rate terms say —
	// under heavy object churn the model's objRate×sharing term would
	// otherwise flip near-sparse groups to GMA, where measurement says
	// they lose. The floor is a pure function of current query state, so
	// it applies at every re-plan.
	minSharing = 2.0
	// minGmaShare is the engine-level activation floor: the fraction of
	// all registered queries GMA must tentatively win before any group is
	// grouped at all (see the override in replan). It was set when a
	// grouped group cost a second engine on a cloned network; with one
	// core the fixed cost left is the sequence decomposition and the
	// active-node monitors, so the floor is likely too conservative. It is
	// kept value-for-value here — placements are part of the replayed
	// state — and re-deriving it is a measurement of its own (ROADMAP item 3).
	minGmaShare = 0.35
	// gmaTakeoverShare is the symmetric consolidation bound (sticky, with
	// hysteresis — see replan): once GMA would win more than this fraction
	// of the queries, the leftover sparse tail rides along on GMA instead
	// of splitting — the direct side's per-query expansion-tree upkeep
	// under churn costs more than GMA's already-monitored area absorbing
	// the extra queries. Like minGmaShare it predates the single core and
	// keeps its value until re-measured.
	gmaTakeoverShare = 0.58
)

// GroupCost is one group's entry in the planner's stats block: the cost
// model's latest estimates and the resulting placement.
type GroupCost struct {
	Cell    int     `json:"cell"`
	Queries int     `json:"queries"`
	Edges   int     `json:"edges"` // distinct query-hosting edges
	Owner   string  `json:"owner"`
	CostIMA float64 `json:"cost_ima"`
	CostGMA float64 `json:"cost_gma"`
}

// Stats is the planner block served under /v1/stats. A snapshot is
// published atomically at every re-plan, so readers never race the
// stepper.
type Stats struct {
	Groups          int    `json:"groups"` // non-empty groups at the last re-plan
	GroupsIMA       int    `json:"groups_ima"`
	GroupsGMA       int    `json:"groups_gma"`
	QueriesIMA      int    `json:"queries_ima"`
	QueriesGMA      int    `json:"queries_gma"`
	Migrations      uint64 `json:"migrations"`       // group placement changes, cumulative
	MigratedQueries uint64 `json:"migrated_queries"` // queries whose mode migrations flipped
	CrossMoves      uint64 `json:"cross_moves"`      // query moves into a cell labeled for the other mode (reconciled at the next re-plan)
	Replans         uint64 `json:"replans"`
	LastPlanTick    uint64 `json:"last_plan_tick"`
	// GroupCosts lists the non-empty groups' latest cost estimates,
	// ascending by cell.
	GroupCosts []GroupCost `json:"group_costs,omitempty"`
}

// StatsProvider is what the serving layer type-asserts against to attach
// the planner block to /v1/stats.
type StatsProvider interface {
	PlannerStats() *Stats
}

// cellQuery is the re-plan scratch row: one registered query, as the core
// holds it, resolved to its current cell. Positions come from the core — it
// is authoritative, re-snapping queries under topology churn.
type cellQuery struct {
	cell int32
	id   core.QueryID
	k    int32
	mode core.Mode
	pos  roadnet.Position
}

// planGroup is one evaluated cell group between the two re-plan passes:
// its row range, cost estimates, prior label and tentative placement.
type planGroup struct {
	lo, hi  int
	edges   int
	cur     core.Mode
	want    core.Mode
	costIMA float64
	costGMA float64
}

// Planner is the adaptive engine: the core it embeds does all the
// monitoring — and provides Register, Unregister, Result, Snapshot, Queries,
// Close and Rebuild — while the planner decides modes. The
// full serving stack — WAL checkpointing, crash recovery, follower
// replication — runs under it unchanged.
type Planner struct {
	*core.Incremental

	planEvery int
	ticks     uint64 // applied Steps (restored by RestoreClock)
	// cellOwner is the current placement of every grid cell; the core
	// places a registering query by its cell's owner (place). Defaults to
	// Direct.
	cellOwner []core.Mode

	// Windowed per-cell update counts since the last re-plan — the
	// deterministic agility inputs of the cost model.
	winObj      []uint32
	winMove     []uint32
	windowTicks uint32

	// Reused re-plan scratch.
	rows      []cellQuery
	edgeBuf   []int32
	groupBuf  []planGroup
	statsView atomic.Pointer[Stats]

	// takeover is the sticky engine-level consolidation mode: true while
	// the tentative GMA share has crossed gmaTakeoverShare and not yet
	// fallen back below it by the hysteresis margin. Stream-deterministic
	// like every placement input.
	takeover bool

	migrations      uint64
	migratedQueries uint64
	crossMoves      uint64
	replans         uint64
	lastPlanTick    uint64
}

// New creates a planner engine over net with default options.
func New(net *roadnet.Network) *Planner { return NewWith(net, core.Options{}) }

// NewWith creates a planner engine over net: one core that owns net, with
// the planner's cell labels as its placement function.
func NewWith(net *roadnet.Network, o core.Options) *Planner {
	const cells = 1 << (2 * gridDepth)
	p := &Planner{
		planEvery: o.Planner.PlanEvery,
		cellOwner: make([]core.Mode, cells),
		winObj:    make([]uint32, cells),
		winMove:   make([]uint32, cells),
	}
	if p.planEvery <= 0 {
		p.planEvery = defaultPlanEvery
	}
	p.Incremental = core.NewIncremental("AUTO", net, o, p.place)
	p.statsView.Store(&Stats{})
	return p
}

func (p *Planner) cellOf(pos roadnet.Position) int32 {
	net := p.Network()
	return int32(net.SI.CellIndex(net.Point(pos), gridDepth))
}

// place is the core's placement function: a registering query takes the
// mode of its cell's label (Direct until a re-plan decides otherwise).
func (p *Planner) place(pos roadnet.Position) core.Mode { return p.cellOwner[p.cellOf(pos)] }

// Step implements Engine. The core applies the batch in one pass — a move
// keeps its mode even when it lands in a cell labeled for the other one,
// and the next re-plan reconciles — the windowed per-cell statistics are
// advanced from the batch, and, every PlanEvery-th tick, placements are
// re-evaluated and groups migrated before the tick is published. A move
// counts with the mode its query holds before the batch, but every cell is
// looked up once the core has applied the batch's topology section: a
// position may lie on an edge that section inserts.
func (p *Planner) Step(u core.Updates) {
	p.ticks++
	moves := p.rows[:0] // the re-plan's scratch, free until then
	for _, qu := range u.Queries {
		if qu.Insert || qu.Delete {
			continue
		}
		if _, _, mode, ok := p.Placement(qu.ID); ok { // else: unknown id, the core ignores the move
			moves = append(moves, cellQuery{mode: mode, pos: qu.New})
		}
	}
	p.rows = moves
	p.Advance(u)
	for _, mv := range moves {
		cell := p.cellOf(mv.pos)
		p.winMove[cell]++
		if p.cellOwner[cell] != mv.mode {
			// The query drifted into a cell labeled for the other mode. Its
			// mode deliberately does NOT follow the label mid-tick: a flip
			// is a from-scratch k-NN computation, and an agile group
			// drifting across cell boundaries would pay it every tick. The
			// next re-plan reconciles labels and modes in one deterministic
			// sweep.
			p.crossMoves++
		}
	}
	// A delete counts where the core found the object, and not at all when
	// the id was unknown.
	departed := p.Departures()
	for _, ou := range u.Objects {
		pos := ou.New
		if !ou.Insert {
			if ou.Delete {
				pos = departed[0]
			}
			departed = departed[1:]
		}
		if pos.Edge != graph.NoEdge {
			p.winObj[p.cellOf(pos)]++
		}
	}
	p.windowTicks++

	// The first tick re-plans too: queries registered before any Step all
	// start Direct, and making a dense group wait a full period before its
	// first placement would charge the whole warmup to the wrong mode.
	if p.ticks == 1 || p.ticks%uint64(p.planEvery) == 0 {
		p.replan()
	}
	p.Commit()
}

// replan re-derives every cell's placement from the cost model — the
// windowed agility statistics, with hysteresis against the current owner —
// and migrates groups whose cheaper mode changed, flipping their queries'
// mode (ascending cell, then ascending id — a fixed order, so replicas fed
// one stream migrate identically). The window resets afterwards.
func (p *Planner) replan() {
	// One walk of the core's query table: the rows arrive ascending by id,
	// and grouping them by cell keeps that order within each cell.
	rows := p.rows[:0]
	p.Placements(func(id core.QueryID, pos roadnet.Position, k int, mode core.Mode) {
		rows = append(rows, cellQuery{cell: p.cellOf(pos), id: id, k: int32(k), mode: mode, pos: pos})
	})
	slices.SortStableFunc(rows, func(a, b cellQuery) int { return cmp.Compare(a.cell, b.cell) })
	p.rows = rows

	st := &Stats{}

	// Pass 1: per-group cost evaluation and tentative placement.
	groups := p.groupBuf[:0]
	gmaQueries := 0
	for lo := 0; lo < len(rows); {
		hi := lo
		for hi < len(rows) && rows[hi].cell == rows[lo].cell {
			hi++
		}
		cell := rows[lo].cell
		group := rows[lo:hi]
		q := len(group)
		sumK := 0
		edges := p.edgeBuf[:0]
		for i := range group {
			sumK += int(group[i].k)
			edges = append(edges, int32(group[i].pos.Edge))
		}
		slices.Sort(edges)
		p.edgeBuf = edges
		e := 0
		for i, eid := range edges {
			if i == 0 || eid != edges[i-1] {
				e++
			}
		}

		var objRate, movRate float64
		if p.windowTicks > 0 {
			w := float64(p.windowTicks)
			objRate = float64(p.winObj[cell]) / w
			movRate = float64(p.winMove[cell]) / w
		}
		avgK := float64(sumK) / float64(q)
		sharing := float64(q) / float64(e)
		costIMA := float64(q)*(cImaPerQuery+cImaTree*avgK*sharing) +
			objRate*sharing*cImaPerObj + movRate*avgK*cImaPerMove
		costGMA := float64(e)*avgK*cGmaPerNode + float64(q)*cGmaPerQuery +
			objRate*cGmaPerObj + movRate*avgK*cGmaPerMove

		cur := p.cellOwner[cell]
		want := cur
		if cur == core.Direct && costGMA < costIMA*margin {
			want = core.Grouped
		} else if cur == core.Grouped && costIMA < costGMA*margin {
			want = core.Direct
		}
		if sharing < minSharing {
			want = core.Direct
		}
		if want == core.Grouped {
			gmaQueries += q
		}
		groups = append(groups, planGroup{
			lo: lo, hi: hi, edges: e, cur: cur, want: want,
			costIMA: costIMA, costGMA: costGMA,
		})
		lo = hi
	}
	p.groupBuf = groups

	// The activation floor: unless GMA would win a meaningful fraction of
	// all queries, everything stays Direct (see minGmaShare). Pure function
	// of the tentative placements.
	var share float64
	if len(rows) > 0 {
		share = float64(gmaQueries) / float64(len(rows))
	}
	// The takeover mode is sticky: entering (or leaving) it migrates a
	// large query volume at once, so a share oscillating around the bound
	// would mass-migrate every period. Takeover is therefore left only when
	// the share falls below the bound by the same hysteresis margin groups
	// use.
	if p.takeover {
		p.takeover = share > gmaTakeoverShare*margin
	} else {
		p.takeover = share > gmaTakeoverShare
	}
	forced := false
	if p.takeover {
		forced = true
		for i := range groups {
			groups[i].want = core.Grouped
		}
	} else if len(rows) > 0 && share < minGmaShare {
		forced = true
		for i := range groups {
			groups[i].want = core.Direct
		}
	}

	// Pass 2: commit labels, reconcile modes, publish stats. A group is
	// reconciled (members flipped to the label's mode) only when its label
	// flipped or when the activation floor or takeover forced it. An
	// unchanged label leaves drifted-in stragglers in their current mode: an
	// agile cluster's tail queries re-snap across the cluster boundary every
	// tick, and conforming them at every re-plan would pay two from-scratch
	// computations per query per period just to ping-pong. Stragglers serve
	// correctly in either mode; the next label flip conforms them.
	for _, g := range groups {
		group := rows[g.lo:g.hi]
		cell := group[0].cell
		p.cellOwner[cell] = g.want
		if g.want != g.cur || forced {
			p.migrateGroup(group, g.want)
		}
		q := len(group)
		owner := "IMA"
		if g.want == core.Grouped {
			owner = "GMA"
			st.GroupsGMA++
			st.QueriesGMA += q
		} else {
			st.GroupsIMA++
			st.QueriesIMA += q
		}
		st.GroupCosts = append(st.GroupCosts, GroupCost{
			Cell: int(cell), Queries: q, Edges: g.edges, Owner: owner,
			CostIMA: g.costIMA, CostGMA: g.costGMA,
		})
	}

	p.replans++
	p.lastPlanTick = p.ticks
	p.resetWindow()

	st.Groups = st.GroupsIMA + st.GroupsGMA
	st.Migrations = p.migrations
	st.MigratedQueries = p.migratedQueries
	st.CrossMoves = p.crossMoves
	st.Replans = p.replans
	st.LastPlanTick = p.lastPlanTick
	p.statsView.Store(st)
}

// migrateGroup flips every group member not already in mode want: the core
// drops its old state and computes the new one from scratch, as a fresh
// registration would. Called with the group's rows ascending by id.
func (p *Planner) migrateGroup(group []cellQuery, want core.Mode) {
	moved := false
	for i := range group {
		if group[i].mode == want {
			continue
		}
		p.SetMode(group[i].id, want)
		p.migratedQueries++
		moved = true
	}
	if moved {
		p.migrations++
	}
}

func (p *Planner) resetWindow() {
	clear(p.winObj)
	clear(p.winMove)
	p.windowTicks = 0
}

// RestoreClock implements core.ClockRestorer: called once after a recovery
// or follower bootstrap installed the checkpoint state as one batch. The
// installed queries keep the modes that batch's step left them in (it was
// this planner's first, so it re-planned); the tick count resumes at the
// checkpoint's, so later re-plans fall on the schedule's ticks.
func (p *Planner) RestoreClock(epoch, stamp uint64) {
	p.Incremental.RestoreClock(epoch, stamp)
	p.ticks = stamp
}

// PlannerStats returns the latest atomically-published planner statistics
// (safe from any goroutine).
func (p *Planner) PlannerStats() *Stats { return p.statsView.Load() }

// SizeBytes implements Engine: the core's structures plus the planner's
// cell labels and windows.
func (p *Planner) SizeBytes() int {
	return p.Incremental.SizeBytes() + len(p.cellOwner) +
		4*(len(p.winObj)+len(p.winMove))
}
