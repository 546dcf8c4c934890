(* In-memory span recorder for the traced replay. Spans are opened by
   the benchmark itself around its calls into the program's public
   functions, so the program runs unmodified; nothing is written until
   the run ends.

   Names are interned once, process-wide ([name]), so opening a span
   costs two clock reads and a few array stores. *)

let names : (string, int) Hashtbl.t = Hashtbl.create 32

let name_of = ref [||]

let name s =
  match Hashtbl.find_opt names s with
  | Some id -> id
  | None ->
    let id = Array.length !name_of in
    Hashtbl.add names s id;
    name_of := Array.append !name_of [| s |];
    id

let name_string id = !name_of.(id)

type t = {
  mutable n : int;
  mutable req : int array;
  mutable name_id : int array;
  mutable parent : int array;  (* index of the enclosing span, -1 for a root *)
  mutable start_ns : int array;
  mutable end_ns : int array;
  mutable current : int;  (* innermost open span, -1 outside any *)
  mutable current_req : int;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    req = Array.make cap 0;
    name_id = Array.make cap 0;
    parent = Array.make cap 0;
    start_ns = Array.make cap 0;
    end_ns = Array.make cap 0;
    current = -1;
    current_req = -1;
  }

let now () = Int64.to_int (Xr_obs.Tracing.now_ns ())

let grow t =
  let cap = 2 * Array.length t.req in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.req <- extend t.req;
  t.name_id <- extend t.name_id;
  t.parent <- extend t.parent;
  t.start_ns <- extend t.start_ns;
  t.end_ns <- extend t.end_ns

(* [add] records a finished interval directly — the unit tests build
   overlapping children this way, which the sequential replay never
   produces. *)
let add t ~req ~name_id ~parent ~start_ns ~end_ns =
  if t.n = Array.length t.req then grow t;
  let i = t.n in
  t.req.(i) <- req;
  t.name_id.(i) <- name_id;
  t.parent.(i) <- parent;
  t.start_ns.(i) <- start_ns;
  t.end_ns.(i) <- end_ns;
  t.n <- i + 1;
  i

let with_span t name_id f =
  let parent = t.current in
  let i = add t ~req:t.current_req ~name_id ~parent ~start_ns:0 ~end_ns:0 in
  t.current <- i;
  t.start_ns.(i) <- now ();
  let close () =
    t.end_ns.(i) <- now ();
    t.current <- parent
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* [root t ~req name f] opens a top-level span for request [req]. *)
let root t ~req name_id f =
  t.current_req <- req;
  with_span t name_id f

let clear t =
  t.n <- 0;
  t.current <- -1;
  t.current_req <- -1

let duration t i = t.end_ns.(i) - t.start_ns.(i)

(* Self time of every span: its duration minus the union of its
   children's intervals, each clipped to the parent's own interval.
   Children may overlap (spans closed on several domains); their union
   is charged once. *)
let self_times t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init t.n (fun i ->
      let lo = t.start_ns.(i) and hi = t.end_ns.(i) in
      let intervals =
        List.filter_map
          (fun c ->
            let s = max lo t.start_ns.(c) and e = min hi t.end_ns.(c) in
            if e > s then Some (s, e) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (s, e) ->
            let s = max s reach in
            if e > s then (acc + (e - s), e) else (acc, reach))
          (0, lo) intervals
      in
      hi - lo - covered)

(* Per span name: (calls, total self ns). *)
let totals t =
  let self = self_times t in
  let k = Array.length !name_of in
  let calls = Array.make k 0 and self_ns = Array.make k 0 in
  for i = 0 to t.n - 1 do
    let id = t.name_id.(i) in
    calls.(id) <- calls.(id) + 1;
    self_ns.(id) <- self_ns.(id) + self.(i)
  done;
  (calls, self_ns)

(* [root_durations t id ~n] is, per request id in [\[0, n)], the
   duration of its top-level span named [id]. *)
let root_durations t id ~n =
  let d = Array.make n 0 in
  for i = 0 to t.n - 1 do
    let r = t.req.(i) in
    if t.parent.(i) < 0 && t.name_id.(i) = id && r >= 0 && r < n then d.(r) <- duration t i
  done;
  d

let to_json t =
  let module Json = Xr_server.Json in
  Json.List
    (List.init t.n (fun i ->
         Json.Obj
           [
             ("id", Json.Int i);
             ("req", Json.Int t.req.(i));
             ("name", Json.String (name_string t.name_id.(i)));
             ("parent", Json.Int t.parent.(i));
             ("start_ns", Json.Int t.start_ns.(i));
             ("end_ns", Json.Int t.end_ns.(i));
           ]))
