open Xr_xml

type posting = { dewey : Dewey.t; path : Path.id }

(* Struct-of-arrays posting list: all labels in one packed buffer, node
   types alongside. This is the only resident representation — boxed
   posting records are decoded from it on demand and never kept. *)
type packed = { labels : Dewey.Packed.t; paths : int array }

(* One packed list per keyword, indexed by keyword id. *)
type t = packed array

let empty_packed = { labels = Dewey.Packed.empty; paths = [||] }

let pack_postings (postings : posting array) =
  {
    labels = Dewey.Packed.of_array (Array.map (fun p -> p.dewey) postings);
    paths = Array.map (fun p -> p.path) postings;
  }

let of_packed packed = packed

let rec count_postings counts = function
  | [] -> ()
  | (kw, _) :: rest ->
    counts.(kw) <- counts.(kw) + 1;
    count_postings counts rest

(* [fill.(kw)] is the next free slot of [kw]'s arrays. *)
let rec add_postings labels paths fill (node : Doc.node) = function
  | [] -> ()
  | (kw, _) :: rest ->
    let i = fill.(kw) in
    labels.(kw).(i) <- node.dewey;
    paths.(kw).(i) <- node.path;
    fill.(kw) <- i + 1;
    add_postings labels paths fill node rest

(* Two passes over the nodes: count each keyword's postings, then fill
   its label and path arrays, allocated once, in document order. *)
let build (doc : Doc.t) =
  let counts = Array.make (Interner.size doc.keywords) 0 in
  Array.iter (fun (node : Doc.node) -> count_postings counts node.keywords) doc.nodes;
  let labels = Array.map (fun c -> Array.make c Dewey.root) counts in
  let paths = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make (Array.length counts) 0 in
  Array.iter
    (fun (node : Doc.node) -> add_postings labels paths fill node node.keywords)
    doc.nodes;
  Array.map2 (fun l p -> { labels = Dewey.Packed.of_array l; paths = p }) labels paths

let packed_list t kw = if kw >= 0 && kw < Array.length t then t.(kw) else empty_packed

let list t kw =
  let pk = packed_list t kw in
  Array.init (Dewey.Packed.length pk.labels) (fun i ->
      { dewey = Dewey.Packed.get pk.labels i; path = pk.paths.(i) })

let list_by_name t doc k =
  match Doc.keyword_id doc k with Some kw -> list t kw | None -> [||]

let length t kw = Dewey.Packed.length (packed_list t kw).labels

let iter f t = Array.iteri (fun kw _ -> f kw (list t kw)) t

let iter_packed f t = Array.iteri f t

(* Appends in packed form: the touched lists are never decoded. *)
let extend t ~vocab_size additions =
  let n = max vocab_size (Array.length t) in
  let packed = Array.make n empty_packed in
  Array.blit t 0 packed 0 (Array.length t);
  List.iter
    (fun (kw, postings) ->
      let old = packed.(kw) and fresh = pack_postings (Array.of_list postings) in
      let n0 = Dewey.Packed.length old.labels in
      if
        n0 > 0
        && Dewey.Packed.length fresh.labels > 0
        && Dewey.Packed.compare_entries old.labels (n0 - 1) fresh.labels 0 >= 0
      then invalid_arg "Inverted.extend: appended postings must extend document order";
      packed.(kw) <-
        {
          labels = Dewey.Packed.append old.labels fresh.labels;
          paths = Array.append old.paths fresh.paths;
        })
    additions;
  packed

(* ---- footprint accounting (surfaced by the server's /stats) ------------- *)

let packed_postings pk = Dewey.Packed.length pk.labels

let packed_label_bytes pk = Dewey.Packed.byte_size pk.labels

let packed_bytes pk =
  (* label buffer + one word per offsets-table slot + one word per node
     type id; the words dominate, which is why the offsets table stays
     the cost to beat for further compression. *)
  Dewey.Packed.byte_size pk.labels
  + (8 * (Dewey.Packed.length pk.labels + 1))
  + (8 * Array.length pk.paths)

let sum f t = Array.fold_left (fun a pk -> a + f pk) 0 t

let postings_total t = sum packed_postings t

let label_bytes_total t = sum packed_label_bytes t

let resident_bytes t = sum packed_bytes t
