(** Border-pair shortest-path pre-computation (§5.2, §6).

    For every unordered region pair (i, j), i ≤ j (our networks are
    undirected, so S_{i,j} = S_{j,i}; the paper makes the same
    reduction), grow a shortest-path tree from every border node and
    walk it to every other border node, accumulating:

    - the *region set* S_{i,j}: identifiers of intermediate regions
      crossed by at least one border-to-border shortest path (excluding
      i and j themselves) — the CI payload;
    - the *passage subgraph* G_{i,j}: the exact edges on those paths,
      plus the crossing edges entering R_i and R_j (which a client
      cannot otherwise see, since their sources lie outside the two
      fetched regions) — the PI payload.

    The i = j diagonal is included: a shortest path between two nodes of
    the same region may detour through neighbours.

    {b The walk.}  For a source border node s and a destination region
    j, the paths from s to j's border nodes all lie on s's tree, so
    their union is a subtree.  It is collected by walking up from each
    reachable border node of j and stopping at the first node already
    stamped for (s, j) (an epoch-stamped [int array], so no clearing
    between walks).  Each tree edge is visited at most once per (s, j):
    at most B·R·(n − 1) steps for B border nodes and R regions, and on
    Oldenburg (6,105 nodes, 832 border nodes, 38 regions) 7.6M steps
    where walking every border-to-border chain in full takes 51.0M.
    Unreachable border nodes ([dist = infinity]) are skipped.

    {b Memory.}  Accumulators are dense bitsets, one per unordered pair:
    R(R+1)/2 · ⌈E/63⌉ words for the subgraphs (E edge ids) plus
    R(R+1)/2 · ⌈R/63⌉ for the region sets: 1.35 MB on Oldenburg at
    4 KB pages (38 regions) and 22 MB at 1 KB pages (156 regions).
    The same members held as per-pair hash-table entries (694k and
    6.7M of them) raised the major heap to 81 and 540 MB.  A pair's
    subgraph holds 6.6 % (4 KB) and 3.7 % (1 KB) of the edges on
    average, dense enough that a bit per edge is the smaller form.
    Each worker domain keeps its own copy, merged by bitwise union,
    and grows its trees in one reused {!Psp_graph.Dijkstra.workspace}:
    allocated per source, the tree arrays would put 832 × 4 node-sized
    arrays (163 MB on Oldenburg) on the major heap as garbage. *)

type t

val compute :
  ?domains:int ->
  Psp_graph.Graph.t ->
  assignment:int array ->
  border:Psp_partition.Border.t ->
  want_sets:bool ->
  want_subgraphs:bool ->
  t
(** One pass computes whichever payloads are requested (HY needs both).
    [domains] parallelizes over border-node sources with OCaml 5
    domains (default: up to 4, per the machine); the result is
    identical for any value, because the accumulators are set unions.
    Output is identical to walking every border-to-border tree chain
    in full ([test_index] keeps that algorithm as its oracle). *)

val region_count : t -> int

val pair_index : region_count:int -> int -> int -> int
(** Dense index of the unordered pair; arguments in any order. *)

val pair_count : t -> int

val region_set : t -> int -> int -> int array
(** S_{i,j}, sorted; a fresh array on each call.
    @raise Invalid_argument if sets were not computed. *)

val subgraph : t -> int -> int -> int array
(** G_{i,j} as sorted edge ids; a fresh array on each call.
    @raise Invalid_argument if subgraphs were not computed. *)

val max_set_cardinality : t -> int
(** The paper's m: max |S_{i,j}| over all pairs. *)

val set_cardinality_histogram : t -> int array
(** histogram.(c) = number of pairs with |S_{i,j}| = c — Figure 10(a). *)
