open Xr_xml

type t = {
  data : Inverted.posting array;
  mutable pos : int;
  mutable seq : int;
  mutable rand : int;
}

let make data = { data; pos = 0; seq = 0; rand = 0 }

let at_end c = c.pos >= Array.length c.data

let peek c = if at_end c then None else Some c.data.(c.pos)

let advance c =
  if not (at_end c) then begin
    c.pos <- c.pos + 1;
    c.seq <- c.seq + 1
  end

let seek_geq c dewey =
  if not (at_end c) then begin
    let lo = ref c.pos and hi = ref (Array.length c.data) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Dewey.compare c.data.(mid).Inverted.dewey dewey < 0 then lo := mid + 1 else hi := mid
    done;
    if !lo > c.pos then begin
      c.pos <- !lo;
      c.rand <- c.rand + 1
    end
  end

let skip_to c idx =
  if idx > c.pos then begin
    c.pos <- min idx (Array.length c.data);
    c.rand <- c.rand + 1
  end

let position c = c.pos

let list_length c = Array.length c.data

let sequential_accesses c = c.seq

let random_accesses c = c.rand

(* Monotone cursor over a packed label buffer. Same accounting contract
   as the boxed cursor above, but peeking is positional (no option
   allocation) and seeks gallop from the current position, so a multiway
   scan that advances in small correlated steps pays O(log step) probes
   instead of O(log n). *)
module Packed = struct
  type t = {
    labels : Dewey.Packed.t;
    base : int; (* first entry visible to this cursor *)
    limit : int; (* one past the last visible entry *)
    mutable pos : int;
    mutable seq : int;
    mutable rand : int;
  }

  let make_sub labels ~lo ~hi =
    let n = Dewey.Packed.length labels in
    if lo < 0 || hi < lo || hi > n then invalid_arg "Cursor.Packed.make_sub: bad range";
    { labels; base = lo; limit = hi; pos = lo; seq = 0; rand = 0 }

  let make labels = make_sub labels ~lo:0 ~hi:(Dewey.Packed.length labels)

  let labels c = c.labels

  let length c = c.limit - c.base

  let at_end c = c.pos >= c.limit

  let position c = c.pos

  let advance c =
    if not (at_end c) then begin
      c.pos <- c.pos + 1;
      c.seq <- c.seq + 1
    end

  let seek_geq_sub c v len =
    let n = c.limit in
    if c.pos < n && Dewey.Packed.compare_sub c.labels c.pos v len < 0 then begin
      (* gallop: probe pos+1, pos+3, pos+7, ... to bracket the target,
         then binary search inside the bracket *)
      let lo = ref c.pos and step = ref 1 in
      let hi = ref (c.pos + 1) in
      while !hi < n && Dewey.Packed.compare_sub c.labels !hi v len < 0 do
        lo := !hi;
        step := !step * 2;
        hi := !hi + !step
      done;
      let h = ref (if !hi < n then !hi else n) in
      let l = ref (!lo + 1) in
      while !l < !h do
        let mid = (!l + !h) lsr 1 in
        if Dewey.Packed.compare_sub c.labels mid v len < 0 then l := mid + 1 else h := mid
      done;
      c.pos <- !l;
      c.rand <- c.rand + 1
    end

  let seek_geq c v = seek_geq_sub c v (Array.length v)

  (* Fused seek-and-probe, the scan kernels' inner step: advance to the
     lower bound of [v.(0..len-1)] and return the deepest common prefix
     of [v] with the two entries bracketing it (-1 when neither side
     exists) — [Slca_common.deepest_prefix_depth] without materializing
     either neighbour. The prefix depths fall out of the search itself:
     compares below the target happen at strictly increasing indices, so
     the last one is the left bracket [p - 1]; compares at-or-above at
     strictly decreasing indices, so the last one is [p]. Each compared
     entry is walked exactly once ({!Dewey.Packed.compare_prefix_sub}). *)
  let match_probe c v len =
    let t = c.labels in
    let n = c.limit in
    if c.pos >= n then
      if n = c.base then -1 else Dewey.Packed.common_prefix_len_sub t (n - 1) v len
    else begin
      let r0 = Dewey.Packed.compare_prefix_sub t c.pos v len in
      if r0 land 3 >= 1 then begin
        (* entry under the cursor is already >= v: no movement *)
        let dr = r0 lsr 2 in
        let dl =
          if c.pos > c.base then Dewey.Packed.common_prefix_len_sub t (c.pos - 1) v len
          else -1
        in
        if dl > dr then dl else dr
      end
      else begin
        let dl = ref (r0 lsr 2) and dr = ref (-1) in
        let prev = ref c.pos and step = ref 1 in
        let hi = ref (-1) in
        while !hi < 0 do
          let cand = !prev + !step in
          if cand >= n then hi := n
          else begin
            let r = Dewey.Packed.compare_prefix_sub t cand v len in
            if r land 3 >= 1 then begin
              dr := r lsr 2;
              hi := cand
            end
            else begin
              dl := r lsr 2;
              prev := cand;
              step := !step * 2
            end
          end
        done;
        let l = ref (!prev + 1) and h = ref !hi in
        while !l < !h do
          let mid = (!l + !h) lsr 1 in
          let r = Dewey.Packed.compare_prefix_sub t mid v len in
          if r land 3 >= 1 then begin
            dr := r lsr 2;
            h := mid
          end
          else begin
            dl := r lsr 2;
            l := mid + 1
          end
        done;
        c.pos <- !l;
        c.rand <- c.rand + 1;
        if !dl > !dr then !dl else !dr
      end
    end

  let sequential_accesses c = c.seq

  let random_accesses c = c.rand
end
