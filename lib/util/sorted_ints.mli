(** Sets of ints as sorted, duplicate-free arrays.

    The representation the index builders publish: region sets, edge
    subgraphs and border-node lists.  Every function is monomorphic, so
    comparisons compile to machine-integer tests, and every binary
    operation is a single linear merge.  Arguments that are not sorted
    sets (a malformed record decoded from server bytes) give some array
    of their members, never an exception. *)

val of_array : int array -> int array
(** [of_array a] is the members of [a], sorted ascending with duplicates
    removed.  [a] is not modified. *)

val inter_cardinal : int array -> int array -> int
(** The number of members common to both, without building the
    intersection.  Both arguments must be sorted and duplicate-free. *)

val diff : int array -> int array -> int array
(** Members of the first argument absent from the second.  Both
    arguments must be sorted and duplicate-free. *)

val union : int array -> int array -> int array
(** Members of either.  Both arguments must be sorted and
    duplicate-free; the result then equals [of_array (Array.append a b)]. *)
