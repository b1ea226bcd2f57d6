(** HMAC-SHA-256 (RFC 2104) and an HKDF-style key deriver.

    Keys in the simulated SCP are 32-byte strings; all session keys and
    per-level ORAM keys are derived from a master key with [derive]. *)

val mac : key:bytes -> bytes -> bytes
(** 32-byte authentication tag. *)

val mac_string : key:bytes -> string -> bytes

val verify : key:bytes -> bytes -> tag:bytes -> bool
(** Constant-time tag comparison. *)

val derive : key:bytes -> label:string -> bytes
(** [derive ~key ~label] is a 32-byte subkey bound to [label];
    distinct labels give independent subkeys. *)

(** {1 Prepared keys}

    A key used for many MACs is padded and hashed once: the prepared
    form keeps SHA-256's state after the ipad and opad blocks, and each
    MAC resumes from those states, saving two of the compressions a
    one-shot {!mac} spends on the key. *)

type prepared
(** A key ready for repeated MACs.  It holds a mutable scratch context,
    so one value must not be used by two MACs at once.  That is safe
    under [lib/async] fibers, which never yield inside a MAC, but a
    prepared key must not be shared across domains. *)

val prepare : bytes -> prepared

val mac_prepared : prepared -> ?prefix:bytes -> bytes -> bytes
(** [mac_prepared (prepare key) ?prefix data] equals
    [mac ~key (prefix ^ data)], streamed without the concatenation. *)

val verify_prepared : prepared -> ?prefix:bytes -> bytes -> tag:bytes -> bool
(** {!verify} with a prepared key; the comparison stays constant-time. *)
