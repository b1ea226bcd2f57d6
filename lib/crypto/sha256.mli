(** SHA-256 (FIPS 180-4), pure OCaml.

    The hash underlying every keyed primitive in the simulated secure
    co-processor: HMAC, the PRF, the Feistel round functions and Bloom
    filter indexing.  Verified against the FIPS test vectors in the test
    suite. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
(** A fresh context. *)

val feed : ctx -> bytes -> unit
(** Absorb a chunk; chunks may arrive at any granularity. *)

val feed_string : ctx -> string -> unit
(** {!feed} for strings. *)

val finalize : ctx -> bytes
(** 32-byte digest.  The context must not be reused afterwards, except
    as the target of {!restore}. *)

val copy : ctx -> ctx
(** An independent context in the same state: a snapshot to resume from. *)

val restore : ctx -> from:ctx -> unit
(** [restore ctx ~from] puts [ctx] back into [from]'s state without
    allocating, so one scratch context can resume a saved state again
    and again (HMAC's keyed inner and outer states). *)

val digest : bytes -> bytes
(** One-shot hash. *)

val digest_string : string -> bytes
(** One-shot hash of a string. *)

val hex : bytes -> string
(** Lowercase hexadecimal rendering of a digest. *)
