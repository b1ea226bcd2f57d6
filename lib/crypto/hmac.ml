let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\000' in
  Bytes.blit key 0 padded 0 (Bytes.length key);
  padded
  [@@leak_ok
    "branches on the key length only; keys are fixed-size protocol secrets \
     whose length is public"]

(* b is a normalized key: exactly one block long *)
let xor_in_place b byte =
  for i = 0 to block_size - 1 do
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor byte))
  done

(* HMAC's two keyed states: SHA-256 after absorbing key xor ipad, and
   after absorbing key xor opad. *)
let keyed_states key =
  let k = normalize_key key in
  xor_in_place k 0x36;
  let inner = Sha256.init () in
  Sha256.feed inner k;
  xor_in_place k (0x36 lxor 0x5C);
  let outer = Sha256.init () in
  Sha256.feed outer k;
  (inner, outer)

let mac ~key data =
  let inner, outer = keyed_states key in
  Sha256.feed inner data;
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac_string ~key s = mac ~key (Bytes.of_string s)

type prepared = { inner : Sha256.ctx; outer : Sha256.ctx; work : Sha256.ctx }

let prepare key =
  let inner, outer = keyed_states key in
  { inner; outer; work = Sha256.copy inner }

let mac_prepared p ?prefix data =
  let w = p.work in
  Sha256.restore w ~from:p.inner;
  (match prefix with Some b -> Sha256.feed w b | None -> ());
  Sha256.feed w data;
  let inner_hash = Sha256.finalize w in
  Sha256.restore w ~from:p.outer;
  Sha256.feed w inner_hash;
  Sha256.finalize w
  [@@leak_ok
    "the only branch is on whether the caller passed a prefix, fixed at each call \
     site and never a function of the prefix's content; the feeds below it depend \
     only on lengths, which are public (a fixed-width page number or nonce, \
     fixed-size pages and slots)"]

let equal_tags expected tag =
  if Bytes.length expected <> Bytes.length tag then false
  else begin
    let diff = ref 0 in
    for i = 0 to Bytes.length expected - 1 do
      diff := !diff lor (Char.code (Bytes.get expected i) lxor Char.code (Bytes.get tag i))
    done;
    !diff = 0
  end
  [@@leak_ok
    "length check then a constant-time fold over fixed-size tags; the \
     accept/reject outcome is the protocol's public result"]

let verify ~key data ~tag = equal_tags (mac ~key data) tag
let verify_prepared p ?prefix data ~tag = equal_tags (mac_prepared p ?prefix data) tag

let derive ~key ~label = mac_string ~key ("psp-derive:" ^ label)
