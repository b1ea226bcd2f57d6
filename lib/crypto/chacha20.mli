(** ChaCha20 stream cipher (RFC 8439), pure OCaml.

    Pages stored in the oblivious levels of the simulated PIR server are
    encrypted with ChaCha20 under per-level keys; re-encryption during
    reshuffles uses a fresh nonce so ciphertexts are unlinkable. *)

val block : key:bytes -> nonce:bytes -> counter:int -> bytes
(** The 64-byte keystream block for a 32-byte key, a 12-byte nonce and
    a 32-bit block counter.
    @raise Invalid_argument on wrong key/nonce sizes. *)

val encrypt : key:bytes -> nonce:bytes -> ?counter:int -> bytes -> bytes
(** XOR the keystream into the plaintext.  Encryption and decryption are
    the same operation.  Block [i] uses counter [(counter + i) mod 2^32].
    @raise Invalid_argument on wrong key/nonce sizes. *)

val decrypt : key:bytes -> nonce:bytes -> ?counter:int -> bytes -> bytes

val keystream : key:bytes -> nonce:bytes -> int -> bytes
(** First [n] keystream bytes, counter starting at 0 — handy as a PRG. *)
