(* The HTTP side of the benchmark: [xrefine serve] as a child process,
   a closed-loop client over loopback TCP, and [/metrics] scrapes. *)

module Http = Xr_server.Http
open Xr_e2e

let now_ns () = Int64.to_int (Xr_obs.Tracing.now_ns ())

(* ---- child server ------------------------------------------------------- *)

type child = { pid : int; port : int; out : Unix.file_descr }

(* Children still running, killed at exit whatever path the bench takes
   out of [main]. *)
let live : child list ref = ref []

(* The child sees the caller's environment minus every [XR_*] setting,
   with the shared domain pool pinned to two domains. *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"XR_" kv))
  |> List.cons "XR_POOL_DOMAINS=2"
  |> Array.of_list

(* The port from a complete ["listening on http://HOST:PORT"] line. *)
let listening_port text =
  let needle = "listening on " in
  let n = String.length needle in
  let rec find i =
    if i + n > String.length text then None
    else if String.sub text i n = needle then
      match String.index_from_opt text i '\n' with
      | None -> None
      | Some eol -> (
        let line = String.sub text i (eol - i) in
        match String.rindex_opt line ':' with
        | Some c -> int_of_string_opt (String.sub line (c + 1) (String.length line - c - 1))
        | None -> None)
    else find (i + 1)
  in
  find 0

let read_port fd ~timeout_s =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec loop () =
    match listening_port (Buffer.contents buf) with
    | Some port -> port
    | None -> (
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then failwith "xrefine serve did not report a listening port in time";
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> loop ()
      | _ ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "xrefine serve exited before listening";
        Buffer.add_subbytes buf chunk 0 n;
        loop ())
  in
  loop ()

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Unix.close fd;
     raise e);
  fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- client connections ------------------------------------------------ *)

(* The load generator's end of a connection. *)
type conn = { fd : Unix.file_descr; reader : Http.reader }

exception Bad_response of string

let open_conn port =
  let fd = connect port in
  { fd; reader = Http.reader_of_fd fd }

let close_conn c = close_quietly c.fd

(* [response c] reads one answer: its status, whether the server closes
   the connection after it, and its body. *)
let response c =
  match Http.read_response c.reader with
  | Ok (status, headers, body) ->
    let connection = List.assoc_opt "connection" headers in
    let closing = Option.map String.lowercase_ascii connection = Some "close" in
    (status, closing, body)
  | Error e -> raise (Bad_response (Http.error_to_string e))

(* One request on a throwaway connection. *)
let exchange port wire =
  match open_conn port with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | c ->
    Fun.protect
      ~finally:(fun () -> close_conn c)
      (fun () ->
        match
          Http.write_all c.fd wire;
          response c
        with
        | status, _, body -> Ok (status, body)
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | exception Bad_response msg -> Error msg)

let get port target =
  exchange port (Printf.sprintf "GET %s HTTP/1.1\r\nhost: e2e\r\n\r\n" target)

let stop child =
  (try Unix.kill child.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] child.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill child.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] child.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  close_quietly child.out;
  live := List.filter (fun c -> c.pid <> child.pid) !live

let () = at_exit (fun () -> List.iter stop !live)

(* [spawn ~server ~corpus ~log] starts [xrefine serve], its stderr
   appended to [log], and returns it with its set-up time: from the
   spawn to the first [/health] answered 200. *)
let spawn ~server ~corpus ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let argv =
    [|
      server; "serve"; "-d"; corpus; "-p"; "0"; "--compress"; "flat"; "--domains"; "2"; "--quiet";
    |]
  in
  let t0 = now_ns () in
  let pid = Unix.create_process_env server argv (child_env ()) Unix.stdin w err in
  Unix.close w;
  Unix.close err;
  let placeholder = { pid; port = 0; out = r } in
  live := placeholder :: !live;
  match read_port r ~timeout_s:120. with
  | exception e ->
    stop placeholder;
    raise e
  | port ->
    let child = { placeholder with port } in
    live := child :: List.filter (fun c -> c.pid <> pid) !live;
    let rec healthy attempts =
      match get port "/health" with
      | Ok (200, _) -> ()
      | _ when attempts > 0 ->
        Unix.sleepf 0.001;
        healthy (attempts - 1)
      | _ ->
        stop child;
        failwith "xrefine serve never answered /health"
    in
    healthy 5000;
    (child, float_of_int (now_ns () - t0) /. 1e9)

(* Peak resident set of the child, in MiB ([VmHWM] in /proc). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  In_channel.with_open_text path In_channel.input_lines
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:nan

let scrape port =
  match get port "/metrics" with
  | Ok (200, body) -> Prom.parse body
  | Ok (status, _) -> failwith (Printf.sprintf "/metrics answered %d" status)
  | Error e -> failwith ("/metrics: " ^ e)

(* ---- closed-loop client ------------------------------------------------- *)

type timed = {
  first : int;  (* list position of slot 0 *)
  limit : int;  (* slots the run may fill *)
  lat_ns : int array;  (* send to last response byte, per slot *)
  done_ns : int array;  (* completion time, from the start of the phase *)
  status : int array;  (* HTTP status; 0 never sent, -1 I/O error *)
  bodies : string array;  (* response bodies, kept for cold lists only *)
}

(* [run ~port ~conns ~first ~seconds ~min_requests ~cap ~keep_bodies wl
   wires] sends the list's requests in order from position [first] over
   [conns] persistent connections (one per domain, this one included),
   each sending its next request only when the previous answer is
   complete. Connections pull positions from one shared counter. It
   stops after [seconds] — or, if fewer than [min_requests] have been
   sent by then, once they have or [3 * seconds] have passed — at the
   end of a list that may not wrap, or after [cap] requests. *)
let run ~port ~conns ~first ~seconds ~min_requests ~cap ~keep_bodies (wl : Workload.t) wires =
  let n = Array.length wl.Workload.order in
  let limit = if wl.Workload.wrap then cap else max 0 (min cap (n - first)) in
  let lat_ns = Array.make limit 0 and done_ns = Array.make limit 0 in
  let status = Array.make limit 0 in
  let bodies = Array.make (if keep_bodies then limit else 0) "" in
  let next = Atomic.make 0 in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let overtime = t_start + int_of_float (3. *. seconds *. 1e9) in
  let going () =
    let now = now_ns () in
    now < deadline || (Atomic.get next < min_requests && now < overtime)
  in
  let worker () =
    let conn = ref None in
    let get_conn () =
      match !conn with
      | Some c -> Some c
      | None -> (
        match open_conn port with
        | c ->
          conn := Some c;
          Some c
        | exception Unix.Unix_error _ -> None)
    in
    let drop () =
      Option.iter close_conn !conn;
      conn := None
    in
    let rec loop () =
      if going () then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < limit then begin
          (match get_conn () with
          | None -> status.(i) <- -1
          | Some c -> (
            let wire = wires.(wl.Workload.order.((first + i) mod n)) in
            let t0 = now_ns () in
            let outcome =
              try
                Http.write_all c.fd wire;
                Ok (response c)
              with Unix.Unix_error _ | Bad_response _ -> Error ()
            in
            let t1 = now_ns () in
            lat_ns.(i) <- t1 - t0;
            done_ns.(i) <- t1 - t_start;
            match outcome with
            | Ok (st, closing, body) ->
              status.(i) <- st;
              if keep_bodies then bodies.(i) <- body;
              if closing then drop ()
            | Error () ->
              status.(i) <- -1;
              drop ()));
          loop ()
        end
      end
    in
    loop ();
    drop ()
  in
  let others = List.init (conns - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join others;
  { first; limit; lat_ns; done_ns; status; bodies }

(* Requests sent: the slots fill from 0 without gaps. *)
let sent t =
  let rec count i = if i < t.limit && t.status.(i) <> 0 then count (i + 1) else i in
  count 0
