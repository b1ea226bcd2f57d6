(** Dijkstra's algorithm [Dijkstra 1959] with lazy-deletion heaps.

    Used (i) by the client on the downloaded subgraph (§5.4 round four),
    (ii) by index pre-computation to find border-to-border shortest
    paths, and (iii) as the exact reference in tests. *)

type spt = {
  dist : float array;       (** dist.(v) = cost of SP(source, v); [infinity] if unreachable *)
  parent : int array;       (** predecessor node on the tree; -1 at source/unreachable *)
  parent_edge : int array;  (** edge id into v; -1 at source/unreachable *)
  settled : int;            (** number of nodes popped — the search effort *)
}

val tree : Graph.t -> source:int -> spt
(** Full single-source shortest-path tree. *)

type workspace
(** The arrays and heap of one full-tree search, reusable across
    sources.  A tree is four node-indexed arrays, too large for the
    minor heap, so a caller growing many trees in a row (index
    pre-computation grows one per border node) would otherwise put them
    all on the major heap as garbage. *)

val workspace : Graph.t -> workspace
(** A workspace for trees over this graph. *)

val tree_in : workspace -> source:int -> spt
(** [tree g ~source] for the workspace's graph, built in the
    workspace's arrays: the result is valid until the next [tree_in]
    on the same workspace, which overwrites it.  One workspace serves
    one domain at a time. *)

val tree_until : Graph.t -> source:int -> targets:int list -> spt
(** Stop as soon as every target is settled (exact distances for the
    settled prefix; [infinity] elsewhere means "not settled", not
    necessarily unreachable). *)

val distance : Graph.t -> int -> int -> float
(** Point-to-point cost; [infinity] if unreachable. *)

val shortest_path : Graph.t -> int -> int -> Path.t option
(** SP(s, t), or [None] if t is unreachable.  [Some (trivial s)] when
    s = t. *)

val path_to : Graph.t -> spt -> int -> Path.t option
(** Extract the tree path to a node from a computed SPT. *)

val restricted : Graph.t -> allowed:(int -> bool) -> source:int -> target:int -> Path.t option
(** Dijkstra confined to nodes satisfying [allowed] (both endpoints must
    satisfy it) — models the client searching only the union of fetched
    regions. *)
