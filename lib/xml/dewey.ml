type t = int array

let root = [||]

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let n = if la < lb then la else lb in
  let rec go i =
    if i = n then Int.compare la lb
    else
      let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0

let child d i =
  let n = Array.length d in
  let r = Array.make (n + 1) 0 in
  Array.blit d 0 r 0 n;
  r.(n) <- i;
  r

let parent d =
  let n = Array.length d in
  if n = 0 then None else Some (Array.sub d 0 (n - 1))

let depth = Array.length

let is_prefix p d =
  let lp = Array.length p in
  lp <= Array.length d
  &&
  let rec go i = i = lp || (p.(i) = d.(i) && go (i + 1)) in
  go 0

let common_prefix_len a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i = if i < n && a.(i) = b.(i) then go (i + 1) else i in
  go 0

let lca a b = Array.sub a 0 (common_prefix_len a b)

let prefix d n =
  if n > Array.length d then invalid_arg "Dewey.prefix: too deep"
  else Array.sub d 0 n

let to_string d =
  if Array.length d = 0 then "0"
  else
    let b = Buffer.create 16 in
    Buffer.add_char b '0';
    Array.iter
      (fun i ->
        Buffer.add_char b '.';
        Buffer.add_string b (string_of_int i))
      d;
    Buffer.contents b

let of_string s =
  match String.split_on_char '.' s with
  | "0" :: rest ->
    let comp c =
      match int_of_string_opt c with
      | Some i when i >= 0 -> i
      | _ -> invalid_arg ("Dewey.of_string: bad component " ^ c)
    in
    Array.of_list (List.map comp rest)
  | _ -> invalid_arg ("Dewey.of_string: must start with 0: " ^ s)

let pp ppf d = Format.pp_print_string ppf (to_string d)

let hash d = Hashtbl.hash (Array.to_list d)

type label = t

(* Packed posting labels: one contiguous byte buffer per inverted list,
   each entry a varint depth followed by varint components, addressed
   through an offsets table. All structural operations (compare, common
   prefix, lower bound) decode lazily off the buffer with early exit and
   never materialize an [int array]. *)
module Packed = struct
  type t = { buf : string; offsets : int array; max_depth : int }

  let empty = { buf = ""; offsets = [| 0 |]; max_depth = 0 }

  let length t = Array.length t.offsets - 1

  let byte_size t = String.length t.buf

  let max_depth t = t.max_depth

  (* ---- varints (unsigned LEB128, components are child ordinals >= 0) --- *)

  let add_varint b n =
    let rec go n =
      if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
      else begin
        Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
    in
    go n

  let byte s off = Char.code (String.unsafe_get s off)

  let rec decode_from s off shift acc =
    let b = byte s off in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b < 0x80 then acc else decode_from s (off + 1) (shift + 7) acc

  (* single-byte fast path: ordinals below 128 are one byte *)
  let decode s off =
    let b = byte s off in
    if b < 0x80 then b else decode_from s (off + 1) 7 (b land 0x7f)

  let rec skip s off = if byte s off < 0x80 then off + 1 else skip s (off + 1)

  (* ---- building --------------------------------------------------------- *)

  let of_array (labels : label array) =
    let n = Array.length labels in
    let b = Buffer.create ((4 * n) + 16) in
    let offsets = Array.make (n + 1) 0 in
    let maxd = ref 0 in
    for i = 0 to n - 1 do
      let d = labels.(i) in
      let depth = Array.length d in
      offsets.(i) <- Buffer.length b;
      add_varint b depth;
      for k = 0 to depth - 1 do
        if d.(k) < 0 then invalid_arg "Dewey.Packed.of_array: negative component";
        add_varint b d.(k)
      done;
      if depth > !maxd then maxd := depth
    done;
    offsets.(n) <- Buffer.length b;
    { buf = Buffer.contents b; offsets; max_depth = !maxd }

  let of_list l = of_array (Array.of_list l)

  (* Entries are self-delimiting, so the concatenated buffer holds
     [b]'s entries verbatim: only their offsets move. *)
  let append a b =
    let na = length a and nb = length b in
    let shift = String.length a.buf in
    let offsets = Array.make (na + nb + 1) 0 in
    Array.blit a.offsets 0 offsets 0 na;
    for i = 0 to nb do
      offsets.(na + i) <- b.offsets.(i) + shift
    done;
    { buf = a.buf ^ b.buf; offsets; max_depth = max a.max_depth b.max_depth }

  (* ---- per-entry access ------------------------------------------------- *)

  let check t i =
    if i < 0 || i >= length t then invalid_arg "Dewey.Packed: entry index out of bounds"

  let depth_at t i =
    check t i;
    decode t.buf t.offsets.(i)

  (* The entry walks below are top-level recursive functions that take
     every value they read as an argument: a local [let rec] capturing
     its context is a closure, and without flambda that closure is heap
     allocated on every call. *)
  let rec blit_from buf dst d k off =
    if k < d then begin
      Array.unsafe_set dst k (decode buf off);
      blit_from buf dst d (k + 1) (skip buf off)
    end

  let blit_entry t i dst =
    check t i;
    let off = t.offsets.(i) in
    let d = decode t.buf off in
    if Array.length dst < d then invalid_arg "Dewey.Packed.blit_entry: scratch too small";
    blit_from t.buf dst d 0 (skip t.buf off);
    d

  let get t i =
    check t i;
    let off = t.offsets.(i) in
    let d = decode t.buf off in
    let a = Array.make d 0 in
    blit_from t.buf a d 0 (skip t.buf off);
    a

  let to_array t = Array.init (length t) (get t)

  (* ---- allocation-free structural operations ---------------------------- *)

  let rec compare_from buf (v : label) d len n k off =
    if k = n then Int.compare d len
    else
      let c = decode buf off in
      let x = Array.unsafe_get v k in
      if c <> x then Int.compare c x
      else compare_from buf v d len n (k + 1) (skip buf off)

  let compare_sub t i (v : label) len =
    check t i;
    let off = t.offsets.(i) in
    let d = decode t.buf off in
    let n = if d < len then d else len in
    compare_from t.buf v d len n 0 (skip t.buf off)

  let compare_label t i v = compare_sub t i v (Array.length v)

  let rec common_from buf (v : label) n k off =
    if k = n then k
    else if decode buf off = Array.unsafe_get v k then
      common_from buf v n (k + 1) (skip buf off)
    else k

  let common_prefix_len_sub t i (v : label) len =
    check t i;
    let off = t.offsets.(i) in
    let d = decode t.buf off in
    let n = if d < len then d else len in
    common_from t.buf v n 0 (skip t.buf off)

  let common_prefix_len_label t i v = common_prefix_len_sub t i v (Array.length v)

  let first_component t i =
    check t i;
    let off = t.offsets.(i) in
    if decode t.buf off = 0 then -1 else decode t.buf (skip t.buf off)

  (* Combined {!compare_sub} + {!common_prefix_len_sub} in one walk:
     [(plen lsl 2) lor (cmp + 1)] with [cmp] in [{-1, 0, 1}]. The walk
     reads each byte once (single-byte components, the overwhelmingly
     common case, take the branch that never re-reads for a skip). This
     is the probe primitive of the scan kernels, where it halves the
     number of entry walks per cursor step. *)
  let rec compare_prefix_from buf (v : label) d len n k off =
    if k = n then (n lsl 2) lor (Int.compare d len + 1)
    else
      let b = byte buf off in
      if b < 0x80 then
        let x = Array.unsafe_get v k in
        if b <> x then (k lsl 2) lor (Int.compare b x + 1)
        else compare_prefix_from buf v d len n (k + 1) (off + 1)
      else
        let c = decode_from buf (off + 1) 7 (b land 0x7f) in
        let x = Array.unsafe_get v k in
        if c <> x then (k lsl 2) lor (Int.compare c x + 1)
        else compare_prefix_from buf v d len n (k + 1) (skip buf (off + 1))

  let compare_prefix_sub t i (v : label) len =
    check t i;
    let buf = t.buf in
    let off = t.offsets.(i) in
    let d = decode buf off in
    let n = if d < len then d else len in
    compare_prefix_from buf v d len n 0 (skip buf off)

  let rec compare_entries_from bufa bufb da db n k offa offb =
    if k = n then Int.compare da db
    else
      let x = decode bufa offa and y = decode bufb offb in
      if x <> y then Int.compare x y
      else
        compare_entries_from bufa bufb da db n (k + 1) (skip bufa offa) (skip bufb offb)

  let compare_entries a i b j =
    check a i;
    check b j;
    let offa = a.offsets.(i) and offb = b.offsets.(j) in
    let da = decode a.buf offa and db = decode b.buf offb in
    let n = if da < db then da else db in
    compare_entries_from a.buf b.buf da db n 0 (skip a.buf offa) (skip b.buf offb)

  let lower_bound_sub t ~lo (v : label) len =
    let l = ref (if lo < 0 then 0 else lo) and h = ref (length t) in
    while !l < !h do
      let mid = (!l + !h) lsr 1 in
      if compare_sub t mid v len < 0 then l := mid + 1 else h := mid
    done;
    !l

  let lower_bound t ~lo v = lower_bound_sub t ~lo v (Array.length v)

  (* Entries inside the subtree rooted at [v.(0..len-1)] form a contiguous
     run: those [>=] the root whose first [len] components equal it. Both
     boundaries are binary searches on the encoded form; the upper one
     treats every entry prefixed by the root as "still below". *)
  let prefix_slice_sub t ~lo v len =
    let l = lower_bound_sub t ~lo v len in
    let l2 = ref l and h = ref (length t) in
    while !l2 < !h do
      let mid = (!l2 + !h) lsr 1 in
      let r = compare_prefix_sub t mid v len in
      if (r land 3) - 1 < 0 || r lsr 2 = len then l2 := mid + 1 else h := mid
    done;
    (l, !l2)

  let prefix_slice t ~lo v = prefix_slice_sub t ~lo v (Array.length v)

  (* ---- persistence ------------------------------------------------------ *)

  let to_raw t = (t.buf, t.offsets, t.max_depth)

  let of_raw ~buf ~offsets ~max_depth =
    let n = Array.length offsets in
    if n = 0 || offsets.(0) <> 0 || offsets.(n - 1) <> String.length buf then
      invalid_arg "Dewey.Packed.of_raw: offsets table does not span the buffer";
    for i = 1 to n - 1 do
      if offsets.(i) < offsets.(i - 1) then
        invalid_arg "Dewey.Packed.of_raw: offsets table is not monotone"
    done;
    if max_depth < 0 then invalid_arg "Dewey.Packed.of_raw: negative max depth";
    { buf; offsets; max_depth }
end
